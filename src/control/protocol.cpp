#include "control/protocol.hpp"

#include <cctype>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace pclass::control {

namespace {

/// Strict bounded decimal: parse_count plus a range check.
u64 parse_uint(const std::string& text, u64 max, const char* what) {
  u64 v = 0;
  if (!pclass::parse_count(text, v) || v > max) {
    throw ParseError(std::string(what) + ": expected integer 0.." +
                     std::to_string(max) + ", got '" + text + "'");
  }
  return v;
}

}  // namespace

std::vector<std::string> tokenize(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  std::vector<std::string> out;
  usize i = 0;
  while (i < line.size()) {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i])) != 0) {
      ++i;
    }
    const usize start = i;
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i])) == 0) {
      ++i;
    }
    if (i > start) out.emplace_back(line.substr(start, i - start));
  }
  return out;
}

std::string format_status(int code, std::string_view message) {
  std::string s = std::to_string(code);
  s += ' ';
  // The status line is single-line by contract; defang any embedded
  // newline from an exception message so the framing survives.
  for (const char c : message) s += (c == '\n' || c == '\r') ? ' ' : c;
  s += '\n';
  return s;
}

ruleset::IpPrefix parse_ip_prefix(const std::string& text) {
  if (text == "*") return ruleset::IpPrefix{};
  const usize slash = text.find('/');
  if (slash == std::string::npos) {
    throw ParseError("ip prefix: expected a.b.c.d/len or *, got '" + text +
                     "'");
  }
  const std::string addr = text.substr(0, slash);
  const u64 len = parse_uint(text.substr(slash + 1), 32, "prefix length");
  u32 value = 0;
  usize pos = 0;
  for (int octet = 0; octet < 4; ++octet) {
    const usize dot = octet < 3 ? addr.find('.', pos) : addr.size();
    if (dot == std::string::npos) {
      throw ParseError("ip prefix: malformed address '" + addr + "'");
    }
    const u64 b = parse_uint(addr.substr(pos, dot - pos), 255, "ip octet");
    value = (value << 8) | static_cast<u32>(b);
    pos = dot + 1;
  }
  return ruleset::IpPrefix::make(value, static_cast<u8>(len));
}

ruleset::PortRange parse_port_range(const std::string& text) {
  if (text == "*") return ruleset::PortRange::wildcard();
  const usize dash = text.find('-');
  if (dash == std::string::npos) {
    const u64 p = parse_uint(text, 0xFFFF, "port");
    return ruleset::PortRange::exact(static_cast<u16>(p));
  }
  const u64 lo = parse_uint(text.substr(0, dash), 0xFFFF, "port range lo");
  const u64 hi = parse_uint(text.substr(dash + 1), 0xFFFF, "port range hi");
  if (lo > hi) {
    throw ParseError("port range: lo > hi in '" + text + "'");
  }
  return ruleset::PortRange::make(static_cast<u16>(lo), static_cast<u16>(hi));
}

ruleset::ProtoMatch parse_proto(const std::string& text) {
  if (text == "*") return ruleset::ProtoMatch::any();
  return ruleset::ProtoMatch::exact(
      static_cast<u8>(parse_uint(text, 255, "protocol")));
}

sdn::ActionSpec parse_action(const std::string& text) {
  if (text == "drop") return sdn::ActionSpec::drop();
  if (text.starts_with("out:")) {
    return sdn::ActionSpec::output(
        static_cast<u16>(parse_uint(text.substr(4), 0x3FFF, "output port")));
  }
  if (text.starts_with("group:")) {
    return sdn::ActionSpec::group(
        static_cast<u16>(parse_uint(text.substr(6), 0x3FFF, "group id")));
  }
  throw ParseError("action: expected drop|out:<port>|group:<id>, got '" +
                   text + "'");
}

sdn::Message parse_rule_command(std::span<const std::string> args) {
  if (args.empty()) {
    throw ParseError("rule: expected add|remove|modify");
  }
  const std::string& verb = args[0];
  sdn::FlowMod fm;
  if (verb == "add") {
    if (args.size() != 9) {
      throw ParseError(
          "rule add: expected <id> <priority> <src> <dst> <sports> "
          "<dports> <proto> <drop|out:N|group:N> (8 args, got " +
          std::to_string(args.size() - 1) + ")");
    }
    fm.command = sdn::FlowMod::Command::kAdd;
    fm.cookie = RuleId{static_cast<u32>(
        parse_uint(args[1], 0xFFFFFFFEu, "rule id"))};
    fm.match.priority =
        static_cast<Priority>(parse_uint(args[2], 0xFFFFFFFEu, "priority"));
    fm.match.src_ip = parse_ip_prefix(args[3]);
    fm.match.dst_ip = parse_ip_prefix(args[4]);
    fm.match.src_port = parse_port_range(args[5]);
    fm.match.dst_port = parse_port_range(args[6]);
    fm.match.proto = parse_proto(args[7]);
    fm.action = parse_action(args[8]);
    return fm;
  }
  if (verb == "remove") {
    if (args.size() != 2) {
      throw ParseError("rule remove: expected <id>");
    }
    fm.command = sdn::FlowMod::Command::kDelete;
    fm.cookie = RuleId{static_cast<u32>(
        parse_uint(args[1], 0xFFFFFFFEu, "rule id"))};
    return fm;
  }
  if (verb == "modify") {
    if (args.size() != 3) {
      throw ParseError("rule modify: expected <id> <drop|out:N|group:N>");
    }
    fm.command = sdn::FlowMod::Command::kModify;
    fm.cookie = RuleId{static_cast<u32>(
        parse_uint(args[1], 0xFFFFFFFEu, "rule id"))};
    fm.action = parse_action(args[2]);
    return fm;
  }
  throw ParseError("rule: unknown verb '" + verb + "'");
}

sdn::Message parse_set_command(std::span<const std::string> args) {
  if (args.size() != 2) {
    throw ParseError(
        "set: expected <path-policy|ip-alg> <value>");
  }
  const std::string& knob = args[0];
  const std::string& value = args[1];
  sdn::ConfigMod cm;
  if (knob == "path-policy") {
    if (value == "adaptive") {
      cm.path_policy = core::PathPolicy::kAdaptive;
    } else if (value == "phase2") {
      cm.path_policy = core::PathPolicy::kForcePhase2;
    } else if (value == "scalar-loop") {
      cm.path_policy = core::PathPolicy::kForceScalarLoop;
    } else {
      throw ParseError("set path-policy: expected adaptive|phase2|scalar-loop");
    }
    return cm;
  }
  if (knob == "ip-alg") {
    if (value == "mbt") {
      cm.ip_algorithm = core::IpAlgorithm::kMbt;
    } else if (value == "bst") {
      cm.ip_algorithm = core::IpAlgorithm::kBst;
    } else if (value == "rvh") {
      cm.ip_algorithm = core::IpAlgorithm::kRvh;
    } else {
      throw ParseError("set ip-alg: expected mbt|bst|rvh");
    }
    return cm;
  }
  throw ParseError("set: unknown knob '" + knob + "'");
}

}  // namespace pclass::control
