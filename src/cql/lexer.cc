#include "src/cql/lexer.h"

#include <cctype>
#include <charconv>

namespace pipes::cql {

namespace {

bool IdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IdentPart(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

char ToUpper(char c) {
  return static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
}

}  // namespace

bool Token::Is(const char* upper) const {
  if (kind != TokenKind::kIdent) return false;
  std::size_t i = 0;
  for (; i < text.size(); ++i) {
    if (upper[i] == '\0' || ToUpper(text[i]) != upper[i]) return false;
  }
  return upper[i] == '\0';
}

bool Token::IsSymbol(const char* symbol) const {
  return kind == TokenKind::kSymbol && text == symbol;
}

Result<std::vector<Token>> Tokenize(const std::string& input) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  const std::size_t n = input.size();
  while (i < n) {
    const char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token token;
    token.position = i;
    if (IdentStart(c)) {
      std::size_t j = i;
      while (j < n && IdentPart(input[j])) ++j;
      token.kind = TokenKind::kIdent;
      token.text = input.substr(i, j - i);
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i;
      bool is_double = false;
      while (j < n && std::isdigit(static_cast<unsigned char>(input[j]))) ++j;
      if (j < n && input[j] == '.' && j + 1 < n &&
          std::isdigit(static_cast<unsigned char>(input[j + 1]))) {
        is_double = true;
        ++j;
        while (j < n && std::isdigit(static_cast<unsigned char>(input[j]))) {
          ++j;
        }
      }
      token.text = input.substr(i, j - i);
      token.kind = is_double ? TokenKind::kDouble : TokenKind::kInt;
      const char* first = input.data() + i;
      const char* last = input.data() + j;
      const std::from_chars_result parsed =
          is_double ? std::from_chars(first, last, token.double_value)
                    : std::from_chars(first, last, token.int_value);
      if (parsed.ec != std::errc()) {
        return Status::ParseError("numeric literal " + token.text +
                                  " out of range at offset " +
                                  std::to_string(i));
      }
      i = j;
    } else if (c == '\'') {
      std::size_t j = i + 1;
      while (j < n && input[j] != '\'') ++j;
      if (j >= n) {
        return Status::ParseError("unterminated string literal at offset " +
                                  std::to_string(i));
      }
      token.kind = TokenKind::kString;
      token.text = input.substr(i + 1, j - i - 1);
      i = j + 1;
    } else {
      token.kind = TokenKind::kSymbol;
      // Two-character operators first.
      if (i + 1 < n) {
        const std::string two = input.substr(i, 2);
        if (two == "<=" || two == ">=" || two == "<>" || two == "!=") {
          token.text = two == "!=" ? "<>" : two;
          i += 2;
          tokens.push_back(std::move(token));
          continue;
        }
      }
      switch (c) {
        case ',':
        case '(':
        case ')':
        case '[':
        case ']':
        case '.':
        case '*':
        case '+':
        case '-':
        case '/':
        case '%':
        case '<':
        case '>':
        case '=':
          token.text = std::string(1, c);
          ++i;
          break;
        default:
          return Status::ParseError("unexpected character '" +
                                    std::string(1, c) + "' at offset " +
                                    std::to_string(i));
      }
    }
    tokens.push_back(std::move(token));
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.position = n;
  tokens.push_back(std::move(end));
  return tokens;
}

}  // namespace pipes::cql
