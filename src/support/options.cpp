#include "support/options.hpp"

#include <cstdlib>
#include <sstream>

#include "support/check.hpp"

namespace support {

namespace {

/// Maps an option name like "max-depth" to env var "SELFISH_MAX_DEPTH".
std::string env_name(const std::string& name) {
  std::string out = "SELFISH_";
  for (char c : name) {
    if (c == '-') out += '_';
    else out += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

}  // namespace

void Options::declare(const std::string& name,
                      const std::string& default_value,
                      const std::string& help) {
  SM_REQUIRE(!name.empty() && name[0] != '-',
             "option names are given without leading dashes: ", name);
  SM_REQUIRE(decls_.find(name) == decls_.end(),
             "option declared twice: ", name);
  decls_[name] = Decl{default_value, help};
}

void Options::parse(int argc, const char* const* argv) {
  // Environment defaults first, so CLI flags can override them.
  for (const auto& [name, decl] : decls_) {
    if (const char* env = std::getenv(env_name(name).c_str())) {
      values_[name] = env;
    }
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw InvalidArgument("expected --option, got: " + arg);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const auto it = decls_.find(name);
    if (it == decls_.end()) throw InvalidArgument("unknown option: --" + name);
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (it->second.default_value == "false" ||
               it->second.default_value == "true") {
      value = "true";  // A bare flag is a boolean "true".
    } else {
      if (i + 1 >= argc) {
        throw InvalidArgument("option --" + name + " expects a value");
      }
      value = argv[++i];  // Otherwise the next token is the value.
    }
    values_[name] = value;
  }
}

const Options::Decl& Options::find(const std::string& name) const {
  const auto it = decls_.find(name);
  SM_REQUIRE(it != decls_.end(), "option was never declared: ", name);
  return it->second;
}

std::string Options::get_string(const std::string& name) const {
  const Decl& decl = find(name);
  const auto it = values_.find(name);
  return it != values_.end() ? it->second : decl.default_value;
}

int Options::get_int(const std::string& name) const {
  const std::string s = get_string(name);
  try {
    std::size_t pos = 0;
    const int v = std::stoi(s, &pos);
    if (pos == s.size()) return v;
  } catch (const std::logic_error&) {
    // Not a number or out of range: refused below, like trailing text.
  }
  throw InvalidArgument(detail::concat("option --", name,
                                       " is not an integer: ", s));
}

double Options::get_double(const std::string& name) const {
  const std::string s = get_string(name);
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos == s.size()) return v;
  } catch (const std::logic_error&) {
    // Not a number or out of range: refused below, like trailing text.
  }
  throw InvalidArgument(detail::concat("option --", name,
                                       " is not a number: ", s));
}

bool Options::get_bool(const std::string& name) const {
  const std::string s = get_string(name);
  if (s == "true" || s == "1" || s == "yes" || s == "on") return true;
  if (s == "false" || s == "0" || s == "no" || s == "off") return false;
  throw InvalidArgument(detail::concat("option --", name,
                                       " is not a boolean: ", s));
}

bool Options::was_set(const std::string& name) const {
  find(name);  // validate declaration
  return values_.find(name) != values_.end();
}

bool Options::knows(const std::string& name) const {
  return decls_.find(name) != decls_.end();
}

std::string Options::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [options]\n";
  for (const auto& [name, decl] : decls_) {
    os << "  --" << name << " (default: " << decl.default_value << ")\n"
       << "      " << decl.help << '\n';
  }
  return os.str();
}

}  // namespace support
