#include "core/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>

namespace acoustic::core::cli {

namespace {

/// Help column: a row whose flag and placeholder are wider starts its help
/// on the next line.
constexpr std::size_t kHelpColumn = 26;
constexpr std::size_t kHelpWidth = 79;

/// Appends @p text word-wrapped at kHelpWidth, starting at column @p col;
/// continuation lines are indented to @p indent.
void append_wrapped(std::string& out, const std::string& text,
                    std::size_t indent, std::size_t col) {
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t len = std::min(text.find(' ', pos), text.size()) - pos;
    if (col > indent && col + 1 + len > kHelpWidth) {
      out += '\n' + std::string(indent, ' ');
      col = indent;
    } else if (col > indent) {
      out += ' ';
      ++col;
    }
    out.append(text, pos, len);
    col += len;
    pos += len + 1;
  }
  out += '\n';
}

/// Appends "  <left>  <help>" with the help in the help column.
void append_row(std::string& out, const std::string& left,
                const std::string& help) {
  out += "  " + left;
  out += left.size() + 4 > kHelpColumn
             ? '\n' + std::string(kHelpColumn, ' ')
             : std::string(kHelpColumn - 2 - left.size(), ' ');
  append_wrapped(out, help, kHelpColumn, kHelpColumn);
}

}  // namespace

Option choice(std::string flag, std::string help, std::string& target,
              std::span<const std::string_view> names) {
  std::vector<std::pair<std::string, std::string>> choices;
  for (const std::string_view name : names) {
    choices.emplace_back(name, name);
  }
  return choice(std::move(flag), std::move(help), target, std::move(choices));
}

bool parse(const OptionTable& table, Args args) {
  // Match every word first: values[r] collects row r's occurrences in
  // command-line order, and no setter runs before the whole line matched.
  std::vector<std::vector<std::string>> values(table.options.size());
  std::vector<std::string> positionals;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& word = args[i];
    if (word == "--help") {
      std::fputs(help(table).c_str(), stdout);
      return false;
    }
    if (word.size() < 2 || word[0] != '-') {
      if (positionals.size() == table.positionals.size()) {
        throw UsageError("unexpected argument '" + word + "'");
      }
      positionals.push_back(word);
      continue;
    }
    const auto row = std::find_if(
        table.options.begin(), table.options.end(),
        [&](const Option& option) { return option.flag == word; });
    if (row == table.options.end()) {
      throw UsageError("unknown option '" + word + "'");
    }
    if (!row->value.empty() && ++i == args.size()) {
      throw UsageError(word + ": missing value " + row->value);
    }
    values[static_cast<std::size_t>(row - table.options.begin())].push_back(
        row->value.empty() ? "" : args[i]);
  }
  if (positionals.size() < table.positionals.size()) {
    throw UsageError("missing " + table.positionals[positionals.size()].name);
  }
  for (std::size_t i = 0; i < positionals.size(); ++i) {
    table.positionals[i].set(positionals[i]);
  }
  for (std::size_t r = 0; r < table.options.size(); ++r) {
    for (const std::string& value : values[r]) {
      try {
        table.options[r].set(value);
      } catch (const UsageError& e) {
        throw UsageError(table.options[r].flag + ": " + e.what());
      }
    }
  }
  return true;
}

std::string help(const OptionTable& table) {
  std::string out = "usage: " + table.command;
  for (const Positional& positional : table.positionals) {
    out += " " + positional.name;
  }
  out += table.options.empty() ? "\n\n" : " [options]\n\n";
  append_wrapped(out, table.summary, 0, 0);
  if (!table.positionals.empty()) {
    out += "\narguments:\n";
  }
  for (const Positional& positional : table.positionals) {
    append_row(out, positional.name, positional.help);
  }
  out += "\noptions:\n";
  for (const Option& option : table.options) {
    append_row(out, option.flag + (option.value.empty() ? "" : " ") +
                        option.value, option.help);
  }
  append_row(out, "--help", "print this help and exit");
  return out;
}

int run(const OptionTable& table, Args args,
        const std::function<int()>& body) {
  try {
    return parse(table, args) ? body() : 0;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "%s: %s\n(see '%s --help')\n", table.command.c_str(),
                 e.what(), table.command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", table.command.c_str(), e.what());
    return 1;
  }
}

int dispatch(const std::string& program, const std::vector<Command>& commands,
             Args args) {
  for (const Command& command : commands) {
    if (!args.empty() && args[0] == command.name) {
      return command.run(args.subspan(1));
    }
  }
  std::string list = "usage: " + program + " COMMAND [arguments] [options]" +
                     "\n\ncommands:\n";
  for (const Command& command : commands) {
    append_row(list, command.name, command.summary);
  }
  list += "\nRun '" + program + " COMMAND --help' for the arguments and " +
          "options of one command.\n";
  const bool help = !args.empty() && args[0] == "--help";
  if (!help && !args.empty()) {
    std::fprintf(stderr, "%s: unknown command '%s'\n", program.c_str(),
                 args[0].c_str());
  }
  std::fputs(list.c_str(), help ? stdout : stderr);
  return help ? 0 : 2;
}

}  // namespace acoustic::core::cli
