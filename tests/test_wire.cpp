#include "dist/wire.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace hdcs::dist {
namespace {

TEST(Wire, HelloRoundTrip) {
  HelloPayload p;
  p.client_name = "lab-piii-7";
  p.cores = 2;
  p.benchmark_ops_per_sec = 5.25e7;
  auto msg = encode_hello(p, 42);
  EXPECT_EQ(msg.correlation, 42u);
  auto q = decode_hello(msg);
  EXPECT_EQ(q.client_name, p.client_name);
  EXPECT_EQ(q.cores, p.cores);
  EXPECT_DOUBLE_EQ(q.benchmark_ops_per_sec, p.benchmark_ops_per_sec);
}

TEST(Wire, HelloAckRoundTrip) {
  HelloAckPayload p;
  p.client_id = 17;
  p.heartbeat_interval_s = 12.5;
  auto q = decode_hello_ack(encode_hello_ack(p, 1));
  EXPECT_EQ(q.client_id, 17u);
  EXPECT_DOUBLE_EQ(q.heartbeat_interval_s, 12.5);
}

TEST(Wire, WorkAssignmentRoundTrip) {
  WorkUnit unit;
  unit.problem_id = 3;
  unit.unit_id = 99;
  unit.stage = 7;
  unit.cost_ops = 1.5e6;
  ByteWriter w;
  w.str("chunk payload");
  unit.payload = w.take();

  auto decoded = decode_work_assignment(encode_work_assignment(unit, 5));
  EXPECT_EQ(decoded.problem_id, 3u);
  EXPECT_EQ(decoded.unit_id, 99u);
  EXPECT_EQ(decoded.stage, 7u);
  EXPECT_DOUBLE_EQ(decoded.cost_ops, 1.5e6);
  EXPECT_EQ(decoded.payload, unit.payload);
}

TEST(Wire, SubmitResultRoundTrip) {
  ResultUnit result;
  result.problem_id = 1;
  result.unit_id = 2;
  result.stage = 3;
  ByteWriter w;
  w.f64(-1234.5);
  result.payload = w.take();
  result.payload_crc = 0xdeadbeefu;  // the donor's digest over payload
  result.epoch = 1;

  auto [client, decoded] = decode_submit_result(encode_submit_result(9, result, 6));
  EXPECT_EQ(client, 9u);
  EXPECT_EQ(decoded.unit_id, 2u);
  EXPECT_EQ(decoded.payload, result.payload);
  EXPECT_EQ(decoded.payload_crc, 0xdeadbeefu);
}

TEST(Wire, SubmitResultV5ProfileTrailerRoundTrip) {
  ResultUnit result;
  result.problem_id = 1;
  result.unit_id = 2;
  result.stage = 3;
  obs::UnitProfile prof;
  prof.queue_wait_s = 0.015;
  prof.blob_fetch_s = 0.25;
  prof.decompress_s = 0.004;
  prof.compute_s = 2.75;
  prof.encode_s = 0.001;
  prof.threads = 4;
  prof.saturations = 17;
  result.profile = prof;
  result.epoch = 1;

  auto [client, decoded] = decode_submit_result(encode_submit_result(9, result, 6));
  EXPECT_EQ(client, 9u);
  ASSERT_TRUE(decoded.profile.has_value());
  EXPECT_DOUBLE_EQ(decoded.profile->queue_wait_s, 0.015);
  EXPECT_DOUBLE_EQ(decoded.profile->blob_fetch_s, 0.25);
  EXPECT_DOUBLE_EQ(decoded.profile->decompress_s, 0.004);
  EXPECT_DOUBLE_EQ(decoded.profile->compute_s, 2.75);
  EXPECT_DOUBLE_EQ(decoded.profile->encode_s, 0.001);
  EXPECT_EQ(decoded.profile->threads, 4u);
  EXPECT_EQ(decoded.profile->saturations, 17u);

  // A frame without a profile carries only the presence flag.
  result.profile.reset();
  auto [c2, d2] = decode_submit_result(encode_submit_result(9, result, 7));
  EXPECT_EQ(c2, 9u);
  EXPECT_FALSE(d2.profile.has_value());
}

TEST(Wire, V6EpochRoundTripsOnWorkAndResult) {
  // The fencing epoch rides on both the lease and the echo.
  WorkUnit unit;
  unit.problem_id = 3;
  unit.unit_id = 99;
  unit.epoch = 7;
  EXPECT_EQ(decode_work_assignment(encode_work_assignment(unit, 5)).epoch, 7u);

  ResultUnit result;
  result.problem_id = 3;
  result.unit_id = 99;
  result.epoch = 7;
  auto [client, decoded] = decode_submit_result(encode_submit_result(9, result, 5));
  EXPECT_EQ(client, 9u);
  EXPECT_EQ(decoded.epoch, 7u);
}

TEST(Wire, SubmitResultWithEpochZeroRejected) {
  // Every lease carries a term >= 1, so epoch 0 on the wire is a faulty
  // donor: the decoder refuses it before the scheduler sees it.
  ResultUnit result;
  result.problem_id = 3;
  result.unit_id = 99;
  EXPECT_THROW(decode_submit_result(encode_submit_result(9, result, 5)),
               ProtocolError);
}

TEST(Wire, ReplicationPayloadsRoundTrip) {
  ReplicaHelloPayload hello;
  hello.standby_name = "standby-2";
  auto h = decode_replica_hello(encode_replica_hello(hello, 11));
  EXPECT_EQ(h.standby_name, "standby-2");

  ReplicaSnapshotPayload snap;
  snap.epoch = 3;
  snap.start_lsn = 4242;
  snap.snapshot_bytes = 123456;
  auto s = decode_replica_snapshot(encode_replica_snapshot(snap, 12));
  EXPECT_EQ(s.epoch, 3u);
  EXPECT_EQ(s.start_lsn, 4242u);
  EXPECT_EQ(s.snapshot_bytes, 123456u);

  WalAppendPayload batch;
  ByteWriter a, b;
  a.str("record one");
  b.u64(77);
  batch.records.push_back(a.take());
  batch.records.push_back(b.take());
  auto w = decode_wal_append(encode_wal_append(batch, 13));
  ASSERT_EQ(w.records.size(), 2u);
  EXPECT_EQ(w.records[0], batch.records[0]);
  EXPECT_EQ(w.records[1], batch.records[1]);
}

TEST(Wire, NoWorkRoundTrip) {
  NoWorkPayload p;
  p.retry_after_s = 2.5;
  p.all_problems_complete = true;
  auto q = decode_no_work(encode_no_work(p, 0));
  EXPECT_DOUBLE_EQ(q.retry_after_s, 2.5);
  EXPECT_TRUE(q.all_problems_complete);
}

TEST(Wire, ProblemDataHeaderRoundTrip) {
  ProblemDataHeaderPayload p;
  p.problem_id = 5;
  p.algorithm_name = "dsearch";
  p.data_bytes = 1234567;
  auto q = decode_problem_data_header(encode_problem_data_header(p, 0));
  EXPECT_EQ(q.problem_id, 5u);
  EXPECT_EQ(q.algorithm_name, "dsearch");
  EXPECT_EQ(q.data_bytes, 1234567u);
}

TEST(Wire, SmallIdMessagesRoundTrip) {
  EXPECT_EQ(decode_request_work(encode_request_work(7, 1)), 7u);
  EXPECT_EQ(decode_heartbeat(encode_heartbeat(8, 2)), 8u);
  EXPECT_EQ(decode_goodbye(encode_goodbye(9, 3)), 9u);
  EXPECT_EQ(decode_fetch_problem_data(encode_fetch_problem_data({11}, 4)).problem_id,
            11u);
  EXPECT_TRUE(decode_result_ack(encode_result_ack({true}, 5)).accepted);
}

TEST(Wire, WrongTypeThrowsProtocolError) {
  auto msg = encode_request_work(1, 1);
  EXPECT_THROW(decode_hello(msg), ProtocolError);
  EXPECT_THROW(decode_work_assignment(msg), ProtocolError);
}

TEST(Wire, TruncatedPayloadThrows) {
  auto msg = encode_hello({"name", 1, 2.0}, 1);
  msg.payload.pop_back();
  EXPECT_THROW(decode_hello(msg), SerializationError);
}

TEST(Wire, TrailingGarbageDetected) {
  auto msg = encode_request_work(1, 1);
  msg.payload.push_back(std::byte{0});
  EXPECT_THROW(decode_request_work(msg), SerializationError);
}

}  // namespace
}  // namespace hdcs::dist
