// Differential tests of the lowered slot executor (codegen/lower.h) against
// the tree-walking interpreter, the sequential oracle. Every program runs
// main() through both; finals must serialize to identical bytes and the op
// counters must be equal as doubles. Runtime errors must carry the same
// message and location. A name the lowering cannot resolve is a lowering
// error, never a silent fallback to the tree-walker.
#include <gtest/gtest.h>

#include "apps/app_configs.h"
#include "codegen/interp.h"
#include "codegen/lower.h"
#include "codegen/serialize.h"
#include "parser/parser.h"
#include "sema/sema.h"

namespace cgp {
namespace {

struct Fixture {
  std::unique_ptr<Program> program;
  ClassRegistry registry;
};

Fixture prepare(std::string_view source) {
  Fixture fixture;
  DiagnosticEngine diags;
  fixture.program = Parser::parse(source, diags);
  Sema sema(*fixture.program, diags);
  SemaResult result = sema.run();
  EXPECT_TRUE(result.ok) << diags.render();
  fixture.registry = std::move(result.registry);
  return fixture;
}

std::vector<unsigned char> value_bytes(const Value& value) {
  dc::Buffer buffer;
  write_value(buffer, value);
  const auto* data = reinterpret_cast<const unsigned char*>(buffer.data());
  return std::vector<unsigned char>(data, data + buffer.size());
}

struct Outcome {
  std::map<std::string, Value> finals;
  double ops = 0.0;
  std::string error;  // InterpError::what(), "" when the run completed
  SourceLocation error_location;
};

Outcome run_tree_walker(const ClassRegistry& registry, const std::string& cls,
                        const std::map<std::string, std::int64_t>& constants) {
  Outcome out;
  Interpreter interp(registry, constants);
  try {
    out.finals = interp.run(cls, "main").flatten();
  } catch (const InterpError& e) {
    out.error = e.what();
    out.error_location = e.location;
  }
  out.ops = interp.ops();
  return out;
}

Outcome run_lowered(const ClassRegistry& registry, const std::string& cls,
                    const std::map<std::string, std::int64_t>& constants) {
  Outcome out;
  const auto main = lower_main(registry, cls, "main", constants);
  StageFrame frame(main->frame);
  Executor exec(*main->program);
  try {
    exec.run(*main, frame);
    out.finals = frame.flatten();
  } catch (const InterpError& e) {
    out.error = e.what();
    out.error_location = e.location;
  }
  out.ops = exec.ops();
  return out;
}

void expect_same(const Outcome& oracle, const Outcome& lowered,
                 const std::string& what) {
  EXPECT_EQ(lowered.error, oracle.error) << what;
  EXPECT_EQ(lowered.error_location, oracle.error_location) << what;
  EXPECT_TRUE(lowered.ops == oracle.ops)
      << what << ": ops " << lowered.ops << " vs " << oracle.ops;
  ASSERT_EQ(lowered.finals.size(), oracle.finals.size()) << what;
  for (const auto& [name, value] : oracle.finals) {
    auto it = lowered.finals.find(name);
    ASSERT_NE(it, lowered.finals.end()) << what << ": lowered lacks " << name;
    EXPECT_EQ(value_bytes(it->second), value_bytes(value))
        << what << ": " << name << " = " << value_to_string(it->second)
        << " vs " << value_to_string(value);
  }
}

/// Runs main() of `cls` both ways and compares everything.
Outcome differential(std::string_view source, const std::string& cls,
                     const std::map<std::string, std::int64_t>& constants = {},
                     const std::string& what = "") {
  Fixture f = prepare(source);
  const Outcome oracle = run_tree_walker(f.registry, cls, constants);
  const Outcome lowered = run_lowered(f.registry, cls, constants);
  expect_same(oracle, lowered, what.empty() ? cls : what);
  return oracle;
}

// ---- the interpreter unit-test programs (tests/test_interp.cpp) -----------

TEST(Lowered, Arithmetic) {
  const Outcome o = differential(R"(
    class A {
      void main() {
        int a = 2 + 3 * 4;
        int b = (2 + 3) * 4;
        int c = 17 % 5;
        double d = 7.0 / 2.0;
        int e = 7 / 2;
      }
    }
  )", "A");
  EXPECT_EQ(as_int(o.finals.at("a")), 14);
}

TEST(Lowered, ControlFlow) {
  differential(R"(
    class A {
      void main() {
        int total = 0;
        for (int i = 0; i < 10; i++) {
          if (i % 2 == 0) { continue; }
          if (i == 9) { break; }
          total = total + i;
        }
        int loops = 0;
        while (loops < 5) { loops++; }
      }
    }
  )", "A");
}

TEST(Lowered, ForeachOverRectdomainAndArray) {
  differential(R"(
    class A {
      void main() {
        double[] xs = new double[5];
        foreach (i in [0 : 4]) { xs[i] = i * 1.5; }
        double total = 0.0;
        foreach (v in xs) { total = total + v; }
      }
    }
  )", "A");
}

TEST(Lowered, MethodsAndConstructors) {
  differential(R"(
    class Counter {
      int value;
      Counter(int start) { value = start; }
      void bump(int by) { value = value + by; }
      int get() { return value; }
    }
    class A {
      void main() {
        Counter c = new Counter(10);
        c.bump(5);
        c.bump(-2);
        int result = c.get();
      }
    }
  )", "A");
}

TEST(Lowered, UnqualifiedFieldAndMethodAccess) {
  differential(R"(
    class A {
      int x;
      int twice() { return x * 2; }
      void run() { x = 21; }
    }
    class B {
      void main() {
        A a = new A();
        a.run();
        int result = a.twice();
      }
    }
  )", "B");
}

TEST(Lowered, Intrinsics) {
  differential(R"(
    class A {
      void main() {
        double a = sqrt(16.0);
        double b = max(2.0, 3.5);
        int c = min(7, 4);
        double d = abs(-2.5);
        double e = floor(3.9);
        double g = pow(2.0, 8.0);
        double h = ceil(1.2) + exp(0.5) + log(3.0) + sin(0.3) + cos(0.3);
        double k = atan2(1.0, 2.0);
        int m = abs(-4);
      }
    }
  )", "A");
}

TEST(Lowered, RuntimeConstants) {
  differential(R"(
    class A {
      void main() {
        int n = runtime_define_n * 2;
      }
    }
  )", "A", {{"runtime_define_n", 21}});
}

TEST(Lowered, PipelinedLoopSequentialSemantics) {
  differential(R"(
    interface Reducinterface { }
    class Acc implements Reducinterface {
      double total;
      Acc() { total = 0.0; }
      void add(double v) { total = total + v; }
    }
    class A {
      void main() {
        Acc acc = new Acc();
        PipelinedLoop (p in [0 : 3]) {
          acc.add(p * 1.0);
        }
        double result = acc.total;
      }
    }
  )", "A");
}

TEST(Lowered, PipelinedLoopWithoutHookRunsBody) {
  differential(R"(
    class A {
      void main() {
        int ran = 0;
        PipelinedLoop (p in [0 : 3]) {
          ran = ran + 1;
        }
      }
    }
  )", "A");
}

TEST(Lowered, BaseIndexedArrayAccess) {
  // The packet codec delivers base-shifted sections; reads subtract the base.
  Fixture f = prepare(R"(
    class A {
      int read(int[] xs, int i) { return xs[i]; }
      void main() { A a = new A(); int[] xs = new int[2]; int v = a.read(xs, 1); }
    }
  )");
  auto arr = std::make_shared<ArrayVal>();
  arr->base_index = 100;
  arr->elems = {Value{std::int64_t{7}}, Value{std::int64_t{8}}};
  Interpreter interp(f.registry);
  const auto main = lower_main(f.registry, "A", "main");
  Executor exec(*main->program);
  auto obj = interp.construct("A", {});
  EXPECT_EQ(
      as_int(exec.call_method("A", "read", obj, {arr, std::int64_t{101}})),
      as_int(interp.call_method("A", "read", obj, {arr, std::int64_t{101}})));
  std::string oracle_error, lowered_error;
  try {
    interp.call_method("A", "read", obj, {arr, std::int64_t{99}});
  } catch (const InterpError& e) {
    oracle_error = e.what();
  }
  try {
    exec.call_method("A", "read", obj, {arr, std::int64_t{99}});
  } catch (const InterpError& e) {
    lowered_error = e.what();
  }
  EXPECT_FALSE(oracle_error.empty());
  EXPECT_EQ(lowered_error, oracle_error);
  EXPECT_TRUE(exec.ops() == interp.ops());
}

TEST(Lowered, OpsCounted) {
  const Outcome o = differential(R"(
    class A {
      void main() {
        double total = 0.0;
        foreach (i in [0 : 99]) { total = total + i * 1.0; }
      }
    }
  )", "A");
  EXPECT_GT(o.ops, 400.0);
}

TEST(Lowered, RectdomainAccessors) {
  differential(R"(
    class A {
      void main() {
        Rectdomain<1> d = [3 : 11];
        long n = d.size();
        int lo = d.lo();
        int hi = d.hi();
      }
    }
  )", "A");
}

TEST(Lowered, EmptyRectdomainLoopsZeroTimes) {
  differential(R"(
    class A {
      void main() {
        int count = 0;
        foreach (i in [5 : 2]) { count = count + 1; }
      }
    }
  )", "A");
}

TEST(Lowered, FloatFieldsRoundToFloat32) {
  differential(R"(
    class P { float x; }
    class A {
      void main() {
        P p = new P();
        p.x = 0.1;
        double delta = p.x - 0.1;
      }
    }
  )", "A");
}

TEST(Lowered, ConditionalExpression) {
  differential(R"(
    class A {
      void main() {
        int a = 5 > 3 ? 10 : 20;
        int b = 5 < 3 ? 10 : 20;
      }
    }
  )", "A");
}

TEST(Lowered, IncDecSemantics) {
  differential(R"(
    class A {
      void main() {
        int i = 5;
        int a = i++;
        int b = ++i;
        int c = i--;
        int d = --i;
        double x = 1.5;
        x++;
        double y = --x;
      }
    }
  )", "A");
}

TEST(Lowered, CompoundAssignment) {
  differential(R"(
    class A {
      void main() {
        double x = 10.0;
        x += 2.0;
        x *= 3.0;
        x -= 6.0;
        x /= 5.0;
        int y = 7;
        y += 3;
        y *= 2;
        y /= 3;
        float f = 0.0;
        f += 0.1;
      }
    }
  )", "A");
}

TEST(Lowered, ShortCircuitEvaluation) {
  Fixture f = prepare(R"(
    class A {
      int calls;
      boolean bump() { calls = calls + 1; return true; }
      void main() {
        A a = new A();
        boolean r1 = false && a.bump();
        boolean r2 = true || a.bump();
        boolean r3 = true && a.bump();
        int count = a.calls;
      }
    }
  )");
  const Outcome oracle = run_tree_walker(f.registry, "A", {});
  expect_same(oracle, run_lowered(f.registry, "A", {}), "short circuit");
  EXPECT_EQ(as_int(oracle.finals.at("count")), 1);
}

// ---- shapes the unit programs do not reach --------------------------------

TEST(Lowered, ShadowingRecursionAndReferenceEquality) {
  differential(R"(
    class Node {
      int value;
      Node next;
      Node(int v) { value = v; }
      int sum() {
        int total = value;
        if (next != null) { total = total + next.sum(); }
        return total;
      }
    }
    class A {
      int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
      void main() {
        A a = new A();
        int f = a.fib(12);
        Node head = new Node(1);
        head.next = new Node(2);
        head.next.next = new Node(3);
        int s = head.sum();
        boolean same = head == head;
        boolean differ = head != head.next;
        boolean nothing = head.next.next.next == null;
        int x = 1;
        {
          int y = x + 1;
          x = y * 10;
        }
        for (int i = 0; i < 3; i++) {
          int x2 = i;
          x = x + x2;
        }
        int k = 0;
        while (true) { k++; if (k > 4) { break; } }
        int[] xs = new int[4];
        xs[k - 2] += 7;
        int n = xs.length;
        String label = "done";
        long big = 3000000000;
        double mixed = big / 2 + 0.5 % 0.3 - (-x);
        boolean notb = !(mixed > 1.0);
      }
    }
  )", "A");
}

TEST(Lowered, ArraysOfObjectsAndNestedLoops) {
  differential(R"(
    class P { double x; double y; P(double a, double b) { x = a; y = b; } }
    class A {
      void main() {
        P[] ps = new P[6];
        foreach (i in [0 : 5]) { ps[i] = new P(i * 0.5, 1.0 - i); }
        double acc = 0.0;
        foreach (i in [0 : 5]) {
          foreach (j in [0 : i]) {
            if (j == 3) { break; }
            acc += ps[i].x * ps[j].y;
          }
        }
        int hits = 0;
        foreach (p in ps) { if (p.x > 1.0 && p.y < 0.0) { hits++; } else { hits += 0; } }
      }
    }
  )", "A");
}

// ---- the paper apps and tiny ----------------------------------------------

void differential_app(const apps::AppConfig& config, const std::string& cls) {
  differential(config.source, cls, config.runtime_constants, config.name);
}

TEST(Lowered, Tiny) { differential_app(apps::tiny_config(256, 8), "Tiny"); }

TEST(Lowered, IsosurfaceZBuffer) {
  differential_app(apps::isosurface_zbuffer_config(false), "IsoZBuffer");
}

TEST(Lowered, IsosurfaceActivePixels) {
  differential_app(apps::isosurface_active_pixels_config(false),
                   "IsoActivePixels");
}

TEST(Lowered, Knn) { differential_app(apps::knn_config(3), "Knn"); }

TEST(Lowered, Vmscope) {
  differential_app(apps::vmscope_config(false), "VMScope");
}

// ---- runtime-error parity -------------------------------------------------

void expect_error_parity(std::string_view source, const std::string& needle,
                         const std::map<std::string, std::int64_t>& constants =
                             {}) {
  const Outcome oracle = differential(source, "A", constants, needle);
  EXPECT_NE(oracle.error.find(needle), std::string::npos) << oracle.error;
}

TEST(Lowered, NullFieldAccessErrorParity) {
  expect_error_parity(R"(
    class B { int x; }
    class A { void main() { B b = null; int v = b.x; } }
  )", "field access on null/non-object");
}

TEST(Lowered, IndexOutOfRangeErrorParity) {
  expect_error_parity(R"(
    class A { void main() { int[] xs = new int[3]; int v = xs[5]; } }
  )", "array index 5 out of range [base 0, size 3)");
}

TEST(Lowered, IntegerDivisionByZeroErrorParity) {
  expect_error_parity(R"(
    class A { void main() { int z = 0; int v = 3 / z; } }
  )", "division by zero");
  expect_error_parity(R"(
    class A { void main() { int z = 0; int v = 3; v /= z; } }
  )", "integer division by zero");
}

TEST(Lowered, ModuloByZeroErrorParity) {
  expect_error_parity(R"(
    class A { void main() { int z = 0; int v = 3 % z; } }
  )", "modulo by zero");
}

TEST(Lowered, CallDepthLimitErrorParity) {
  expect_error_parity(R"(
    class A {
      int down(int n) { return down(n + 1); }
      void main() { A a = new A(); int v = a.down(0); }
    }
  )", "call depth limit exceeded");
}

TEST(Lowered, UnboundRuntimeConstantErrorParity) {
  expect_error_parity(R"(
    class A { void main() { int n = 1; n = runtime_define_n; } }
  )", "unbound runtime constant 'runtime_define_n'");
}

TEST(Lowered, ForeachOverNullErrorParity) {
  expect_error_parity(R"(
    class A { void main() { int[] xs = null; int n = 0; foreach (v in xs) { n++; } } }
  )", "foreach domain is neither rectdomain nor array");
}

TEST(Lowered, UnresolvableNameIsALoweringError) {
  // Sema accepts a bare field of main's class, but main runs without a
  // receiver: the tree-walker fails when it reaches the read, the lowering
  // refuses the program up front instead of deferring to the tree-walker.
  Fixture f = prepare(R"(
    class A { int value; void main() { int v = value; } }
  )");
  EXPECT_THROW(lower_main(f.registry, "A", "main"), LowerError);
}

// ---- reuse after a caught error --------------------------------------------

constexpr std::string_view kReuseProgram = R"(
  class Counter {
    int value;
    Counter() { value = 1; }
    int boom(int z) { return value / z; }
    int get() { return value; }
  }
  class A {
    int value;
    void main() { Counter c = new Counter(); int g = c.get(); int b = c.boom(1); }
  }
  class Stray {
    int value;
    void main() { int v = value; }
  }
)";

TEST(Lowered, InterpreterIsReusableAfterAnError) {
  Fixture f = prepare(kReuseProgram);
  Interpreter interp(f.registry);
  auto counter = interp.construct("Counter", {});
  // More caught throws than the call-depth limit: a leaked depth would
  // reject every later call.
  for (int i = 0; i < 300; ++i) {
    EXPECT_THROW(interp.call_method("Counter", "boom", counter,
                                    {std::int64_t{0}}),
                 InterpError);
  }
  EXPECT_EQ(as_int(interp.call_method("Counter", "get", counter, {})), 1);
  // A leaked receiver would resolve Stray's bare `value` against the
  // Counter that threw; main has no receiver, so the read must fail.
  try {
    interp.run("Stray", "main");
    ADD_FAILURE() << "bare field read without a receiver succeeded";
  } catch (const InterpError& e) {
    EXPECT_NE(std::string(e.what()).find("undeclared variable 'value'"),
              std::string::npos)
        << e.what();
  }
}

TEST(Lowered, ExecutorIsReusableAfterAnError) {
  Fixture f = prepare(kReuseProgram);
  const auto main = lower_main(f.registry, "A", "main");
  StageFrame frame(main->frame);
  Executor exec(*main->program);
  exec.run(*main, frame);
  auto counter = std::get<std::shared_ptr<Object>>(frame.get("c"));
  for (int i = 0; i < 300; ++i) {
    EXPECT_THROW(exec.call_method("Counter", "boom", counter,
                                  {std::int64_t{0}}),
                 InterpError);
  }
  EXPECT_EQ(as_int(exec.call_method("Counter", "get", counter, {})), 1);
  // The same executor still runs whole programs.
  StageFrame again(main->frame);
  exec.run(*main, again);
  EXPECT_EQ(as_int(again.get("g")), 1);
}

// ---- the stage frame's two scopes -------------------------------------------

TEST(Lowered, StageFrameModelsBaseAndPacketScopes) {
  lowered::FrameLayout layout;
  layout.add("n");
  layout.add("x");
  layout.size = layout.named();
  StageFrame frame(layout);
  EXPECT_FALSE(frame.has("x"));
  frame.declare("n", std::int64_t{4});
  frame.push();
  frame.declare("n", std::int64_t{5});  // shadows the base binding
  frame.declare("x", 1.5);
  EXPECT_EQ(as_int(frame.get("n")), 5);
  frame.declare_global("x", 2.5);  // carried past the packet
  EXPECT_EQ(as_double(frame.get("x")), 1.5);
  frame.pop();
  EXPECT_EQ(as_int(frame.get("n")), 4);
  EXPECT_EQ(as_double(frame.get("x")), 2.5);
  EXPECT_EQ(frame.flatten().size(), 2u);
  EXPECT_THROW(frame.declare("missing", Value{}), std::logic_error);
}

}  // namespace
}  // namespace cgp
