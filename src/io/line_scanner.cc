#include "io/line_scanner.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <system_error>

namespace hetsched {

namespace {

// kSpace is the C-locale isspace set minus '\n'; kStop ends a line's
// tokens ('\n', or '#' opening a comment).
enum ByteClass : unsigned char { kToken, kSpace, kStop };

constexpr std::array<ByteClass, 256> make_byte_classes() {
  std::array<ByteClass, 256> classes{};
  for (const char c : {' ', '\t', '\v', '\f', '\r'}) {
    classes[static_cast<unsigned char>(c)] = kSpace;
  }
  classes[static_cast<unsigned char>('\n')] = kStop;
  classes[static_cast<unsigned char>('#')] = kStop;
  return classes;
}

constexpr std::array<ByteClass, 256> kByteClass = make_byte_classes();

ByteClass byte_class(char c) {
  return kByteClass[static_cast<unsigned char>(c)];
}

std::string io_error(const char* what, const std::string& path, int err) {
  return std::string(what) + " '" + path +
         "': " + std::generic_category().message(err);
}

}  // namespace

void LineScanner::push(std::string_view token) {
  if (count_ < kInlineTokens) {
    inline_[count_++] = token;
    return;
  }
  if (count_ == kInlineTokens) spill_.assign(inline_.begin(), inline_.end());
  spill_.push_back(token);
  ++count_;
}

bool LineScanner::read_line() {
  const char* const data = text_.data();
  const std::size_t size = text_.size();
  while (pos_ < size) {
    ++line_;
    count_ = 0;
    std::size_t cur = pos_;
    for (;;) {
      while (cur < size && byte_class(data[cur]) == kSpace) ++cur;
      if (cur >= size || byte_class(data[cur]) != kToken) break;
      const std::size_t start = cur;
      while (cur < size && byte_class(data[cur]) == kToken) ++cur;
      push(std::string_view(data + start, cur - start));
    }
    // `cur` is at the line's '\n', its '#', or the end of the input.
    if (cur < size && data[cur] == '#') {
      cur = std::min(text_.find('\n', cur), size);
    }
    pos_ = cur < size ? cur + 1 : size;
    if (count_ > 0) return true;
  }
  return false;
}

std::size_t directive_line_bound(std::string_view text,
                                 std::size_t min_line_bytes) {
  const auto newlines =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
  return std::min(newlines, text.size() / min_line_bytes) + 1;
}

std::optional<std::string> parse_platform_directive(
    std::span<const std::string_view> tokens,
    std::optional<Platform>* platform) {
  if (platform->has_value()) return "duplicate platform directive";
  if (tokens.size() < 2) return "platform needs at least one speed";
  std::vector<Rational> speeds;
  speeds.reserve(tokens.size() - 1);
  for (const std::string_view tok : tokens.subspan(1)) {
    const auto s = parse_speed_token(tok);
    if (!s) return "bad speed '" + std::string(tok) + "'";
    if (!(*s > Rational(0))) {
      return "speed must be positive: '" + std::string(tok) + "'";
    }
    speeds.push_back(*s);
  }
  *platform = Platform::from_speeds_exact(speeds);
  return std::nullopt;
}

bool read_text_file(const std::string& path, std::string* out,
                    std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    *error = io_error("cannot open", path, errno);
    return false;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    *error = io_error("cannot read", path, errno);
    ::close(fd);
    return false;
  }
  // One spare byte lets the read that sees end of file land without a
  // regrow; files whose size fstat does not know (pipes, procfs) grow.
  const std::size_t hint =
      st.st_size > 0 ? static_cast<std::size_t>(st.st_size) : 0;
  out->resize(hint + 1);
  std::size_t got = 0;
  for (;;) {
    if (got >= out->size()) out->resize(2 * out->size());
    const ssize_t n = ::read(fd, out->data() + got, out->size() - got);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      *error = io_error("cannot read", path, errno);
      ::close(fd);
      return false;
    }
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  out->resize(got);
  return true;
}

}  // namespace hetsched
