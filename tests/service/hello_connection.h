// Test helper: a raw connection that has completed the HELLO handshake
// every connection must open with.  Tests that write hand-made frames use
// it; the clients handshake on their own.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <variant>

#include "net/frame.h"
#include "net/socket.h"
#include "service/protocol.h"
#include "service/server.h"

namespace tprm::service::testutil {

/// Connects to `server`'s Unix socket, sends HELLO asking for `window`
/// in-flight requests and `encoding`, and reads the grant, which must grant
/// that encoding.  On success `*socket` holds the connection and, when
/// `granted` is set, `*granted` the granted window.
inline ::testing::AssertionResult helloConnection(
    const NegotiationServer& server, net::Socket* socket,
    std::uint32_t window = 8, std::uint32_t* granted = nullptr,
    Encoding encoding = Encoding::Json) {
  using namespace std::chrono_literals;
  auto connected =
      net::connectUnix(server.unixPath(), net::Deadline::after(1s));
  if (!connected.ok()) {
    return ::testing::AssertionFailure() << connected.error;
  }
  Request hello;
  hello.version = kProtocolVersionV2;
  hello.command = Command::Hello;
  hello.id = 1;
  hello.payload = HelloRequest{window, encoding};
  const net::FrameLimits limits;
  if (!net::writeFrame(connected.socket, encodeRequest(hello), limits,
                       net::Deadline::after(1s))
           .ok()) {
    return ::testing::AssertionFailure() << "HELLO write failed";
  }
  auto frame = net::readFrame(connected.socket, limits,
                              net::Deadline::after(5s),
                              net::Deadline::after(5s));
  if (!frame.ok()) {
    return ::testing::AssertionFailure() << "HELLO read: " << frame.message;
  }
  const auto decoded = decodeResponse(frame.payload);
  if (!decoded.ok() || !decoded.response->ok) {
    return ::testing::AssertionFailure() << "HELLO refused: " << frame.payload;
  }
  const auto* grant = std::get_if<HelloResult>(&decoded.response->result);
  if (grant == nullptr || grant->version != kProtocolVersionV2 ||
      grant->encoding != encoding) {
    return ::testing::AssertionFailure() << "not a HELLO grant: "
                                         << frame.payload;
  }
  if (granted != nullptr) *granted = grant->window;
  *socket = std::move(connected.socket);
  return ::testing::AssertionSuccess();
}

}  // namespace tprm::service::testutil
