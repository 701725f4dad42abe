#include "common/flags.h"

#include <algorithm>
#include <cstdio>

#include "common/string_util.h"

namespace malleus {

FlagValidator<std::string> OneOf(std::vector<std::string> choices) {
  return [choices = std::move(choices)](const std::string& v) {
    return std::find(choices.begin(), choices.end(), v) != choices.end();
  };
}

void FlagTable::Add(std::string name, std::string value_name,
                    std::string help, Form form,
                    std::function<Status(const std::string*)> apply) {
  flags_.push_back({std::move(name), std::move(value_name), std::move(help),
                    form, std::move(apply)});
}

void FlagTable::DefineSwitch(std::string name, bool* out, std::string help) {
  Add(std::move(name), "", std::move(help), Form::kSwitch,
      [out](const std::string*) {
        *out = true;
        return Status::OK();
      });
}

void FlagTable::DefineOptional(std::string name, std::string* out,
                               std::string implicit, std::string value_name,
                               std::string help,
                               FlagValidator<std::string> valid) {
  Add(std::move(name), std::move(value_name), std::move(help),
      Form::kOptional,
      [out, implicit = std::move(implicit),
       valid = std::move(valid)](const std::string* text) {
        if (text != nullptr && valid && !valid(*text)) {
          return Status::InvalidArgument("");
        }
        *out = text != nullptr ? *text : implicit;
        return Status::OK();
      });
}

void FlagTable::DefineCallback(
    std::string name, std::string value_name, std::string help,
    std::function<Status(const std::string&)> apply) {
  Add(std::move(name), std::move(value_name), std::move(help), Form::kValue,
      [apply = std::move(apply)](const std::string* text) {
        return apply(*text);
      });
}

void FlagTable::DefinePositional(std::string name, std::string* out,
                                 bool required) {
  positionals_.push_back({std::move(name), out, nullptr, required});
}

void FlagTable::DefinePositionals(std::string name,
                                  std::vector<std::string>* out) {
  positionals_.push_back({std::move(name), nullptr, out, false});
}

Status FlagTable::ApplyFlag(const std::string& arg) {
  const size_t eq = arg.find('=');
  const std::string name = arg.substr(2, eq - 2);  // npos - 2: to the end.
  const auto flag =
      std::find_if(flags_.begin(), flags_.end(),
                   [&](const Flag& f) { return f.name == name; });
  if (arg.rfind("--", 0) != 0 || flag == flags_.end()) {
    return Status::InvalidArgument("unknown flag: " + arg);
  }
  if (eq == std::string::npos) {
    if (flag->form == Form::kValue) {
      return Status::InvalidArgument(StrFormat(
          "--%s needs a value (--%s=%s)", name.c_str(), name.c_str(),
          flag->value_name.c_str()));
    }
    return flag->apply(nullptr);
  }
  if (flag->form == Form::kSwitch) {
    return Status::InvalidArgument("--" + name + " takes no value");
  }
  const std::string value = arg.substr(eq + 1);
  const Status status = flag->apply(&value);
  if (status.ok()) return status;
  return Status::InvalidArgument(
      status.message().empty()
          ? StrFormat("bad value for %s (want %s)", arg.c_str(),
                      flag->value_name.c_str())
          : StrFormat("bad value for %s: %s", arg.c_str(),
                      status.message().c_str()));
}

Status FlagTable::Parse(int argc, const char* const* argv) {
  help_requested_ = false;
  size_t next = 0;  // Index into positionals_.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return Status::OK();
    }
    if (arg.size() > 1 && arg[0] == '-') {
      MALLEUS_RETURN_NOT_OK(ApplyFlag(arg));
    } else if (next == positionals_.size()) {
      return Status::InvalidArgument("unexpected argument: " + arg);
    } else if (positionals_[next].rest != nullptr) {
      positionals_[next].rest->push_back(arg);
    } else {
      *positionals_[next++].one = arg;
    }
  }
  for (; next < positionals_.size(); ++next) {
    if (positionals_[next].required) {
      return Status::InvalidArgument("missing " + positionals_[next].name);
    }
  }
  return Status::OK();
}

std::string FlagTable::Usage() const {
  std::string out = "usage: " + program_;
  if (!flags_.empty()) out += " [flags]";
  for (const Positional& p : positionals_) {
    out += p.rest != nullptr ? " " + p.name + "..."
           : p.required      ? " " + p.name
                             : " [" + p.name + "]";
  }
  out += "\n";
  std::vector<std::string> syntax;
  size_t width = 0;
  for (const Flag& f : flags_) {
    std::string s = "--" + f.name;
    if (f.form == Form::kValue) s += "=" + f.value_name;
    if (f.form == Form::kOptional) s += "[=" + f.value_name + "]";
    width = std::max(width, s.size());
    syntax.push_back(std::move(s));
  }
  const std::string indent(width + 4, ' ');
  for (size_t i = 0; i < flags_.size(); ++i) {
    std::string help = flags_[i].help;
    for (size_t nl = help.find('\n'); nl != std::string::npos;
         nl = help.find('\n', nl + 1 + indent.size())) {
      help.insert(nl + 1, indent);
    }
    out += StrFormat("  %-*s  %s\n", static_cast<int>(width),
                     syntax[i].c_str(), help.c_str());
  }
  return out;
}

bool FlagTable::ParseOrUsage(int argc, const char* const* argv) {
  const Status status = Parse(argc, argv);
  if (status.ok() && !help_requested_) return true;
  if (!status.ok()) std::fprintf(stderr, "%s\n", status.message().c_str());
  std::fprintf(stderr, "%s", Usage().c_str());
  return false;
}

}  // namespace malleus
