/// \file protocol.hpp
/// The control socket's line-oriented wire protocol (the etalon
/// ControlSocket read/write-handler idiom): requests are single
/// whitespace-tokenized lines, responses are a status line optionally
/// followed by a length-framed payload. docs/CONTROL.md is the
/// normative reference; this header is its code twin.
///
/// Request grammar:
///   read <handler> [args...]
///   write <handler> [args...]
///   subscribe stats <interval_ms>
///   quit
///
/// Response framing:
///   <code> <message>\n                      (always)
///   DATA <nbytes>\n<nbytes payload bytes>   (read handlers with a body)
///
/// Codes follow the familiar HTTP-ish buckets so scripted clients can
/// branch on the first digit: 2xx success, 4xx client error, 5xx
/// server-side refusal.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "sdn/flow_mod.hpp"

namespace pclass::control {

/// Hard per-request line cap (bytes, excluding the terminator). A
/// client that exceeds it gets kLineTooLong and the connection closed —
/// the parser never buffers unbounded input.
inline constexpr usize kMaxLineBytes = 4096;

// Response codes (see file header).
inline constexpr int kOk = 200;
inline constexpr int kBadRequest = 400;      ///< malformed args / parse error
inline constexpr int kUnknownHandler = 404;  ///< no handler of that name
inline constexpr int kConflict = 409;        ///< valid but refused (state)
inline constexpr int kLineTooLong = 431;     ///< request exceeded kMaxLineBytes
inline constexpr int kInternalError = 500;   ///< handler threw unexpectedly
inline constexpr int kTooManyConnections = 503;

/// What a handler returns: a status line and (read handlers) a payload.
struct HandlerResult {
  int code = kOk;
  std::string message = "OK";  ///< single line, no '\n'
  std::optional<std::string> payload;  ///< DATA-framed body when present

  [[nodiscard]] static HandlerResult ok(std::string msg = "OK") {
    return {kOk, std::move(msg), std::nullopt};
  }
  [[nodiscard]] static HandlerResult with_payload(std::string body) {
    return {kOk, "OK", std::move(body)};
  }
  [[nodiscard]] static HandlerResult error(int code, std::string msg) {
    return {code, std::move(msg), std::nullopt};
  }
};

/// Split \p line on ASCII whitespace (empty tokens elided). A trailing
/// '\r' (CRLF clients) is stripped first.
[[nodiscard]] std::vector<std::string> tokenize(std::string_view line);

/// Render the status line (without payload framing).
[[nodiscard]] std::string format_status(int code, std::string_view message);

// ---- argument sub-grammars (shared by handlers and tests) ----
// All parsers throw ParseError with a one-line reason on bad input; the
// dispatcher maps that to kBadRequest.

/// `<a.b.c.d>/<len>` or `*` -> IpPrefix.
[[nodiscard]] ruleset::IpPrefix parse_ip_prefix(const std::string& text);

/// `<lo>-<hi>`, `<port>` or `*` -> PortRange.
[[nodiscard]] ruleset::PortRange parse_port_range(const std::string& text);

/// `<proto>` (0..255) or `*` -> ProtoMatch.
[[nodiscard]] ruleset::ProtoMatch parse_proto(const std::string& text);

/// `drop`, `out:<port>` or `group:<id>` -> ActionSpec.
[[nodiscard]] sdn::ActionSpec parse_action(const std::string& text);

/// Args after the `rule` handler name:
///   add <id> <priority> <src> <dst> <sports> <dports> <proto> <action>
///   remove <id>
///   modify <id> <action>
/// -> the southbound FlowMod. \throws ParseError.
[[nodiscard]] sdn::Message parse_rule_command(
    std::span<const std::string> args);

/// Args after the `set` handler name:
///   path-policy adaptive|phase2|scalar-loop
///   ip-alg mbt|bst|rvh
/// -> a single-knob ConfigMod. \throws ParseError.
[[nodiscard]] sdn::Message parse_set_command(std::span<const std::string> args);

}  // namespace pclass::control
