#include "replication/tcp_transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <mutex>

#include "replication/repl_format.h"

namespace rtic {
namespace replication {
namespace {

// Largest message a peer may announce: a frame header plus the name and
// body bound every frame decoder enforces.
constexpr std::size_t kMaxMessageBytes = kFrameHeaderBytes + kMaxFrameBytes;

Status Errno(const std::string& what) {
  return Status::Internal("tcp transport: " + what + ": " +
                          std::string(strerror(errno)));
}

// One connected stream socket carrying [size u32 LE][frame] messages.
// Send and Recv are independently locked so a shipper thread and an ack
// drain never interleave partial writes or reads. Close() may race with a
// blocked Recv() on another thread: it only shuts the socket down (waking
// the reader with EOF) and leaves the descriptor itself to the destructor,
// so no thread ever sees a recycled fd.
class TcpEndpoint final : public Transport {
 public:
  explicit TcpEndpoint(int fd) : fd_(fd) {}

  ~TcpEndpoint() override {
    Close();
    ::close(fd_);
  }

  Status Send(const std::string& frame) override {
    std::lock_guard<std::mutex> lock(send_mu_);
    if (closed_.load()) {
      return Status::FailedPrecondition("tcp transport: closed");
    }
    unsigned char size[4];
    std::uint32_t n = static_cast<std::uint32_t>(frame.size());
    for (int i = 0; i < 4; ++i) size[i] = (n >> (8 * i)) & 0xff;
    Status s = WriteAll(reinterpret_cast<const char*>(size), 4);
    if (!s.ok()) return s;
    return WriteAll(frame.data(), frame.size());
  }

  Result<bool> Recv(std::string* frame) override {
    std::lock_guard<std::mutex> lock(recv_mu_);
    return RecvLocked(frame, /*blocking=*/true);
  }

  Result<bool> TryRecv(std::string* frame) override {
    std::lock_guard<std::mutex> lock(recv_mu_);
    return RecvLocked(frame, /*blocking=*/false);
  }

  void Close() override {
    if (closed_.exchange(true)) return;
    ::shutdown(fd_, SHUT_RDWR);
  }

 private:
  Status WriteAll(const char* data, std::size_t n) {
    std::size_t done = 0;
    while (done < n) {
      ssize_t w = ::send(fd_, data + done, n - done, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        return Errno("send");
      }
      done += static_cast<std::size_t>(w);
    }
    return Status::OK();
  }

  // Reads whatever is available into buf_; with blocking=false returns
  // immediately when the socket has nothing ready. Returns false on EOF.
  Result<bool> FillSome(bool blocking) {
    if (!blocking) {
      struct pollfd pfd = {fd_, POLLIN, 0};
      int r = ::poll(&pfd, 1, 0);
      if (r < 0) return Errno("poll");
      if (r == 0) return false;  // nothing ready, not EOF
    }
    char chunk[4096];
    ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (r < 0) {
      if (errno == EINTR) return true;
      return Errno("recv");
    }
    if (r == 0) {
      eof_ = true;
      return true;
    }
    buf_.append(chunk, static_cast<std::size_t>(r));
    return true;
  }

  Result<bool> RecvLocked(std::string* frame, bool blocking) {
    if (closed_.load()) {
      return Status::FailedPrecondition("tcp transport: closed");
    }
    for (;;) {
      if (buf_.size() >= 4) {
        std::uint32_t n = 0;
        for (int i = 0; i < 4; ++i) {
          n |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(buf_[i]))
               << (8 * i);
        }
        if (n > kMaxMessageBytes) {
          // Refuse at the prefix, before buffering what it announces (up
          // to 4 GiB); the stream cannot be resynchronized, so hang up.
          Close();
          return Status::InvalidArgument(
              "tcp transport: peer announced a " + std::to_string(n) +
              "-byte frame, over the " + std::to_string(kMaxMessageBytes) +
              "-byte cap");
        }
        if (buf_.size() >= 4 + static_cast<std::size_t>(n)) {
          frame->assign(buf_, 4, n);
          buf_.erase(0, 4 + static_cast<std::size_t>(n));
          return true;
        }
      }
      if (eof_) return false;  // clean close (a trailing partial message is
                               // indistinguishable from a cut — dropped)
      Result<bool> progressed = FillSome(blocking);
      if (!progressed.ok()) return progressed.status();
      if (!blocking && !*progressed && !eof_) return false;
    }
  }

  const int fd_;
  std::atomic<bool> closed_{false};
  std::mutex send_mu_;
  std::mutex recv_mu_;
  std::string buf_;   // guarded by recv_mu_
  bool eof_ = false;  // guarded by recv_mu_
};

}  // namespace

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<TcpListener>> TcpListener::Listen(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return Errno("bind");
  }
  // A server-grade backlog: a burst of clients connecting at once (E15
  // runs 32+) must not see resets while the accept loop catches up.
  if (::listen(fd, SOMAXCONN) < 0) {
    ::close(fd);
    return Errno("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) <
      0) {
    ::close(fd);
    return Errno("getsockname");
  }
  return std::unique_ptr<TcpListener>(
      new TcpListener(fd, ntohs(addr.sin_port)));
}

Result<std::unique_ptr<Transport>> TcpListener::Accept() {
  for (;;) {
    int fd = ::accept(fd_, nullptr, nullptr);
    if (closed_.load()) {
      if (fd >= 0) ::close(fd);  // the Close() wake-up connection
      return Status::FailedPrecondition("tcp transport: listener closed");
    }
    if (fd < 0) {
      if (errno == EINTR) continue;
      return Errno("accept");
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return std::unique_ptr<Transport>(std::make_unique<TcpEndpoint>(fd));
  }
}

void TcpListener::Close() {
  if (closed_.exchange(true)) return;
  // shutdown() wakes a blocked accept() on Linux; the self-connection
  // below covers platforms (and kernels) where it does not. The fd itself
  // stays open until the destructor so a racing Accept() never sees a
  // recycled descriptor.
  ::shutdown(fd_, SHUT_RDWR);
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd >= 0) {
    struct sockaddr_in addr;
    memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port_);
    (void)::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                    sizeof(addr));
    ::close(fd);
  }
}

Result<std::unique_ptr<Transport>> TcpConnect(const std::string& address) {
  std::size_t colon = address.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("tcp transport: address '" + address +
                                   "' is not host:port");
  }
  std::string host = address.substr(0, colon);
  int port = 0;
  try {
    port = std::stoi(address.substr(colon + 1));
  } catch (...) {
    port = -1;
  }
  if (port <= 0 || port > 65535) {
    return Status::InvalidArgument("tcp transport: bad port in '" + address +
                                   "'");
  }
  if (host == "localhost" || host.empty()) host = "127.0.0.1";

  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("tcp transport: host '" + host +
                                   "' is not a numeric IPv4 address");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  for (;;) {
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      break;
    }
    if (errno == EINTR) continue;
    ::close(fd);
    return Errno("connect to " + address);
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<Transport>(std::make_unique<TcpEndpoint>(fd));
}

}  // namespace replication
}  // namespace rtic
