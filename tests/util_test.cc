// Unit tests for util/: Status, StatusOr, strict number parsing, serde,
// rng, mem, timer.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/mem.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/serde.h"
#include "util/status.h"
#include "util/timer.h"

namespace qcm {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IOError("disk full");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(s.message(), "disk full");
  EXPECT_EQ(s.ToString(), "IOError: disk full");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Aborted("x").code(), StatusCode::kAborted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("nope"));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v(std::string(1000, 'x'));
  std::string s = std::move(v).value();
  EXPECT_EQ(s.size(), 1000u);
}

TEST(ParseTest, AcceptsWholeInRangeNumbers) {
  uint32_t u32 = 0;
  EXPECT_TRUE(ParseNumber("4294967295", &u32).ok());
  EXPECT_EQ(u32, 4294967295u);
  int64_t i64 = 0;
  EXPECT_TRUE(ParseNumber("-12", &i64).ok());
  EXPECT_EQ(i64, -12);
  int i32 = 0;
  EXPECT_TRUE(ParseNumber("0", &i32).ok());
  double d = 0;
  EXPECT_TRUE(ParseNumber("1e-3", &d).ok());
  EXPECT_EQ(d, 1e-3);
  EXPECT_TRUE(ParseNumber("-0.5", &d).ok());
  EXPECT_EQ(d, -0.5);
}

TEST(ParseTest, RejectsPartialNegativeAndOutOfRangeText) {
  uint32_t u32 = 7;
  for (const char* bad : {"", "abc", "12abc", " 12", "12 ", "+12", "-5",
                          "1e4", "4294967296", "0x10"}) {
    Status s = ParseNumber(bad, &u32);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << "'" << bad << "'";
    EXPECT_NE(s.message().find(std::string("'") + bad + "'"),
              std::string::npos)
        << s.ToString();
  }
  EXPECT_EQ(u32, 7u);  // untouched on error
  uint64_t u64 = 0;
  EXPECT_FALSE(ParseNumber("-1", &u64).ok());
  EXPECT_FALSE(ParseNumber("18446744073709551616", &u64).ok());
  int i32 = 0;
  EXPECT_FALSE(ParseNumber("2147483648", &i32).ok());
  double d = 0;
  for (const char* bad : {"", "abc", "0.9x", "inf", "nan", "1e400", "1,5"}) {
    EXPECT_FALSE(ParseNumber(bad, &d).ok()) << "'" << bad << "'";
  }
}

TEST(SerdeTest, RoundTripScalars) {
  Encoder enc;
  enc.PutU8(7);
  enc.PutU32(123456);
  enc.PutU64(0xDEADBEEFCAFEBABEULL);
  enc.PutI64(-42);
  enc.PutDouble(3.25);
  enc.PutString("hello");

  Decoder dec(enc.buffer());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  double d;
  std::string s;
  ASSERT_TRUE(dec.GetU8(&u8).ok());
  ASSERT_TRUE(dec.GetU32(&u32).ok());
  ASSERT_TRUE(dec.GetU64(&u64).ok());
  ASSERT_TRUE(dec.GetI64(&i64).ok());
  ASSERT_TRUE(dec.GetDouble(&d).ok());
  ASSERT_TRUE(dec.GetString(&s).ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 123456u);
  EXPECT_EQ(u64, 0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(d, 3.25);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(dec.Done());
}

TEST(SerdeTest, RoundTripVectors) {
  Encoder enc;
  std::vector<uint32_t> v32 = {1, 2, 3, 0xFFFFFFFF};
  std::vector<uint64_t> v64 = {};
  enc.PutU32Vector(v32);
  enc.PutU64Vector(v64);

  Decoder dec(enc.buffer());
  std::vector<uint32_t> o32;
  std::vector<uint64_t> o64;
  ASSERT_TRUE(dec.GetU32Vector(&o32).ok());
  ASSERT_TRUE(dec.GetU64Vector(&o64).ok());
  EXPECT_EQ(o32, v32);
  EXPECT_TRUE(o64.empty());
}

TEST(SerdeTest, UnderflowIsCorruption) {
  Encoder enc;
  enc.PutU32(5);
  Decoder dec(enc.buffer());
  uint64_t out;
  Status s = dec.GetU64(&out);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST(SerdeTest, TruncatedVectorIsCorruption) {
  Encoder enc;
  enc.PutU64(1000);  // claims 1000 elements, provides none
  Decoder dec(enc.buffer());
  std::vector<uint32_t> out;
  EXPECT_EQ(dec.GetU32Vector(&out).code(), StatusCode::kCorruption);

  // Lengths whose byte count wraps to 0 in 64 bits: 2^62 four-byte and
  // 2^61 eight-byte elements.
  Encoder huge32;
  huge32.PutU64(uint64_t{1} << 62);
  Decoder dec32(huge32.buffer());
  EXPECT_EQ(dec32.GetU32Vector(&out).code(), StatusCode::kCorruption);
  Encoder huge64;
  huge64.PutU64(uint64_t{1} << 61);
  Decoder dec64(huge64.buffer());
  std::vector<uint64_t> out64;
  EXPECT_EQ(dec64.GetU64Vector(&out64).code(), StatusCode::kCorruption);
}

TEST(SerdeTest, FramedBlobRoundTrip) {
  std::string buf;
  AppendFramedBlob("payload one", &buf);
  AppendFramedBlob("", &buf);
  AppendFramedBlob(std::string(10000, 'z'), &buf);

  size_t pos = 0;
  std::string p;
  ASSERT_TRUE(ReadFramedBlob(buf, &pos, &p).ok());
  EXPECT_EQ(p, "payload one");
  ASSERT_TRUE(ReadFramedBlob(buf, &pos, &p).ok());
  EXPECT_EQ(p, "");
  ASSERT_TRUE(ReadFramedBlob(buf, &pos, &p).ok());
  EXPECT_EQ(p.size(), 10000u);
  EXPECT_EQ(pos, buf.size());
}

TEST(SerdeTest, FramedBlobDetectsCorruption) {
  std::string buf;
  AppendFramedBlob("payload", &buf);
  buf[buf.size() - 1] ^= 0x1;  // flip a payload bit
  size_t pos = 0;
  std::string p;
  EXPECT_EQ(ReadFramedBlob(buf, &pos, &p).code(), StatusCode::kCorruption);
}

TEST(SerdeTest, FramedBlobDetectsBadMagic) {
  std::string buf;
  AppendFramedBlob("payload", &buf);
  buf[0] ^= 0xFF;
  size_t pos = 0;
  std::string p;
  EXPECT_EQ(ReadFramedBlob(buf, &pos, &p).code(), StatusCode::kCorruption);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.Uniform(bound), bound);
    }
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(11);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 10000; ++i) {
    ++hits[rng.Uniform(10)];
  }
  for (int h : hits) {
    EXPECT_GT(h, 700);
    EXPECT_LT(h, 1300);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(MemTest, RssReadable) {
  EXPECT_GT(CurrentRssBytes(), 0u);
  EXPECT_GE(PeakRssBytes(), CurrentRssBytes() / 2);
}

TEST(MemTest, HumanBytesFormats) {
  EXPECT_EQ(HumanBytes(0), "0.0 B");
  EXPECT_EQ(HumanBytes(1536), "1.5 KB");
  EXPECT_EQ(HumanBytes(3ull << 30), "3.0 GB");
}

TEST(TimerTest, MeasuresElapsed) {
  WallTimer t;
  volatile uint64_t sink = 0;
  for (int i = 0; i < 1000000; ++i) sink = sink + i;
  EXPECT_GE(t.Seconds(), 0.0);
  EXPECT_GE(t.Micros(), 0);
}

TEST(TimerTest, ScopedAccumulatorAddsUp) {
  double total = 0;
  for (int i = 0; i < 3; ++i) {
    ScopedAccumulator acc(&total);
  }
  EXPECT_GE(total, 0.0);
}

}  // namespace
}  // namespace qcm
