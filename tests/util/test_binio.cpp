#include "util/binio.h"

#include <gtest/gtest.h>

#include <limits>

namespace dras::util {
namespace {

TEST(Crc32, StandardCheckValue) {
  // The universal CRC-32/IEEE check value; pinning it here means the
  // checkpoint checksum algorithm can never drift silently.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
}

TEST(Crc32, EmptyAndSensitivity) {
  EXPECT_EQ(crc32(""), 0u);
  EXPECT_NE(crc32("a"), crc32("b"));
  EXPECT_NE(crc32("ab"), crc32("ba"));
}

TEST(BinaryRoundTrip, Scalars) {
  BinaryWriter out;
  out.u8(0xAB);
  out.u32(0xDEADBEEFu);
  out.u64(0x0123456789ABCDEFull);
  out.i64(-42);
  out.f32(1.5F);
  out.f64(-2.25);
  out.boolean(true);
  out.boolean(false);

  BinaryReader in(out.buffer());
  EXPECT_EQ(in.u8(), 0xAB);
  EXPECT_EQ(in.u32(), 0xDEADBEEFu);
  EXPECT_EQ(in.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(in.i64(), -42);
  EXPECT_EQ(in.f32(), 1.5F);
  EXPECT_EQ(in.f64(), -2.25);
  EXPECT_TRUE(in.boolean());
  EXPECT_FALSE(in.boolean());
  EXPECT_TRUE(in.exhausted());
}

TEST(BinaryRoundTrip, NonFiniteFloatsSurvive) {
  BinaryWriter out;
  out.f64(std::numeric_limits<double>::infinity());
  out.f32(std::numeric_limits<float>::quiet_NaN());
  BinaryReader in(out.buffer());
  EXPECT_EQ(in.f64(), std::numeric_limits<double>::infinity());
  const float nan_back = in.f32();
  EXPECT_NE(nan_back, nan_back);  // NaN
}

TEST(BinaryRoundTrip, StringsAndVectors) {
  BinaryWriter out;
  out.str("hello\0world");  // embedded NUL truncates the literal — fine
  out.str("");
  const std::vector<float> floats{1.0F, -2.0F, 3.5F};
  const std::vector<double> doubles{0.25, -0.5};
  const std::vector<std::uint64_t> words{7, 8, 9};
  out.f32_span(floats);
  out.f64_span(doubles);
  out.u64_span(words);

  BinaryReader in(out.buffer());
  EXPECT_EQ(in.str(), "hello");
  EXPECT_EQ(in.str(), "");
  EXPECT_EQ(in.f32_vector(), floats);
  EXPECT_EQ(in.f64_vector(), doubles);
  EXPECT_EQ(in.u64_vector(), words);
  in.expect_exhausted();
}

TEST(BinaryRoundTrip, EmptyVectorsSurvive) {
  // Empty vectors hand null data() pointers to the writer/reader; the
  // raw() paths must skip the memcpy (UB on null even with n = 0).
  BinaryWriter out;
  out.f32_span(std::vector<float>{});
  out.f64_span(std::vector<double>{});
  out.u64_span(std::vector<std::uint64_t>{});
  BinaryReader in(out.buffer());
  EXPECT_TRUE(in.f32_vector().empty());
  EXPECT_TRUE(in.f64_vector().empty());
  EXPECT_TRUE(in.u64_vector().empty());
  in.expect_exhausted();
}

TEST(BinaryRoundTrip, F32IntoValidatesLength) {
  BinaryWriter out;
  out.f32_span(std::vector<float>{1.0F, 2.0F});
  std::vector<float> three(3);
  BinaryReader in(out.buffer());
  EXPECT_THROW(in.f32_into(three), SerializationError);
}

TEST(BinaryReaderErrors, TruncatedScalar) {
  BinaryWriter out;
  out.u32(1);
  const std::string bytes = out.buffer().substr(0, 2);
  BinaryReader in(bytes);
  EXPECT_THROW((void)in.u32(), SerializationError);
}

TEST(BinaryReaderErrors, TruncatedAtEveryPrefix) {
  // A payload cut at ANY byte must produce a structured error, never UB.
  BinaryWriter out;
  out.section("TEST", 1);
  out.str("payload");
  out.f64_span(std::vector<double>{1.0, 2.0, 3.0});
  const std::string full = out.buffer();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    BinaryReader in(std::string_view(full).substr(0, cut));
    EXPECT_THROW(
        {
          (void)in.section("TEST", 1);
          (void)in.str();
          (void)in.f64_vector();
        },
        SerializationError)
        << "prefix length " << cut;
  }
}

TEST(BinaryReaderErrors, HugeLengthPrefixRejected) {
  // A corrupted length prefix must not drive a giant allocation.
  BinaryWriter out;
  out.u64(std::numeric_limits<std::uint64_t>::max());
  BinaryReader in(out.buffer());
  EXPECT_THROW((void)in.str(), SerializationError);
}

TEST(BinaryReaderErrors, TrailingGarbageDetected) {
  BinaryWriter out;
  out.u32(5);
  out.u8(0);  // extra byte
  BinaryReader in(out.buffer());
  (void)in.u32();
  EXPECT_THROW(in.expect_exhausted(), SerializationError);
}

TEST(Sections, TagAndVersionChecked) {
  BinaryWriter out;
  out.section("ADAM", 2);
  {
    BinaryReader in(out.buffer());
    EXPECT_EQ(in.section("ADAM", 3), 2u);  // newer readers accept old data
  }
  {
    BinaryReader in(out.buffer());
    EXPECT_THROW((void)in.section("NNET", 3), SerializationError);
  }
  {
    BinaryReader in(out.buffer());
    // Older reader meeting a too-new section refuses it.
    EXPECT_THROW((void)in.section("ADAM", 1), SerializationError);
  }
}

TEST(Sections, WriterRejectsBadTag) {
  BinaryWriter out;
  EXPECT_THROW(out.section("TOOLONG", 1), SerializationError);
  EXPECT_THROW(out.section("AB", 1), SerializationError);
}

TEST(BinaryReaderErrors, OffsetReportedInMessage) {
  BinaryWriter out;
  out.u32(1);
  BinaryReader in(out.buffer());
  (void)in.u32();
  try {
    (void)in.u64();
    FAIL() << "expected SerializationError";
  } catch (const SerializationError& e) {
    EXPECT_NE(std::string(e.what()).find("4"), std::string::npos)
        << "offset missing from: " << e.what();
  }
}

}  // namespace
}  // namespace dras::util
