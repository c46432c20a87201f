// Value serialization tests.
#include <gtest/gtest.h>

#include "codegen/serialize.h"

namespace cgp {
namespace {

Value round_trip(const Value& value) {
  dc::Buffer buffer;
  write_value(buffer, value);
  return read_value(buffer);
}

TEST(Serialize, Primitives) {
  EXPECT_TRUE(value_equal(round_trip(Value{std::int64_t{-42}}),
                          Value{std::int64_t{-42}}));
  EXPECT_TRUE(value_equal(round_trip(Value{3.25}), Value{3.25}));
  EXPECT_TRUE(value_equal(round_trip(Value{true}), Value{true}));
  EXPECT_TRUE(value_equal(round_trip(Value{std::string("hi")}),
                          Value{std::string("hi")}));
  EXPECT_TRUE(value_equal(round_trip(Value{}), Value{}));
}

TEST(Serialize, Rectdomain) {
  RectDomainVal dom{3, 17};
  Value v = round_trip(Value{dom});
  const auto& out = std::get<RectDomainVal>(v);
  EXPECT_EQ(out.lo, 3);
  EXPECT_EQ(out.hi, 17);
}

TEST(Serialize, CompactDoubleArray) {
  auto arr = std::make_shared<ArrayVal>();
  arr->base_index = 5;
  arr->elems.resize(100);
  for (int i = 0; i < 100; ++i) arr->elems[i] = i * 0.5;
  dc::Buffer buffer;
  write_value(buffer, Value{arr});
  // Raw encoding: ~tag + base + count + 100 doubles, no per-element tags.
  EXPECT_LT(buffer.size(), 100 * 8 + 32);
  Value out = read_value(buffer);
  EXPECT_TRUE(value_equal(Value{arr}, out));
  EXPECT_EQ(std::get<std::shared_ptr<ArrayVal>>(out)->base_index, 5);
}

TEST(Serialize, CompactIntArray) {
  auto arr = std::make_shared<ArrayVal>();
  arr->elems.resize(10);
  for (int i = 0; i < 10; ++i) arr->elems[i] = std::int64_t{i};
  EXPECT_TRUE(value_equal(round_trip(Value{arr}), Value{arr}));
}

TEST(Serialize, ObjectGraph) {
  auto inner = std::make_shared<Object>();
  inner->class_name = "Inner";
  inner->fields = {Value{std::int64_t{7}}};
  auto outer = std::make_shared<Object>();
  outer->class_name = "Outer";
  outer->fields = {Value{1.5}, Value{inner}, Value{}};
  Value out = round_trip(Value{outer});
  EXPECT_TRUE(value_equal(Value{outer}, out));
  const auto& obj = std::get<std::shared_ptr<Object>>(out);
  EXPECT_EQ(obj->class_name, "Outer");
  const auto& nested = std::get<std::shared_ptr<Object>>(obj->fields[1]);
  EXPECT_EQ(nested->class_name, "Inner");
}

TEST(Serialize, MixedArrayFallsBackToTagged) {
  auto arr = std::make_shared<ArrayVal>();
  arr->elems = {Value{std::int64_t{1}}, Value{2.0}};
  EXPECT_TRUE(value_equal(round_trip(Value{arr}), Value{arr}));
}

TEST(Serialize, ValueEqualToleratesFloatNoise) {
  EXPECT_TRUE(value_equal(Value{1.0}, Value{1.0 + 1e-12}, 1e-9));
  EXPECT_FALSE(value_equal(Value{1.0}, Value{1.1}, 1e-9));
}

TEST(Serialize, ValueEqualCrossNumeric) {
  EXPECT_TRUE(value_equal(Value{std::int64_t{3}}, Value{3.0}, 0.0));
  EXPECT_FALSE(value_equal(Value{std::int64_t{3}}, Value{true}));
}

TEST(Serialize, CorruptBufferThrows) {
  dc::Buffer buffer;
  buffer.write<std::uint8_t>(250);  // invalid tag
  EXPECT_THROW(read_value(buffer), std::runtime_error);
}

}  // namespace
}  // namespace cgp
