"""Per-rule positive and negative fixtures for the determinism linter.

Each rule gets code that must fire (positive) and near-miss code that
must not (negative), exercised through the real engine so dispatch,
alias resolution and scoping are covered on every case.
"""

import textwrap

from repro.analysis.lint import LintEngine

#: A path inside every rule's default scope (netsim is policed by all six).
SCOPED = "src/repro/netsim/fixture.py"


def findings_for(code, relpath=SCOPED):
    live, _suppressed = LintEngine().lint_source(relpath, textwrap.dedent(code))
    return live


def rules_hit(code, relpath=SCOPED):
    return sorted({finding.rule for finding in findings_for(code, relpath)})


class TestWallClock:
    def test_direct_module_call(self):
        assert rules_hit("import time\nt = time.time()\n") == ["wall-clock"]

    def test_from_import_and_alias(self):
        code = """
        from time import perf_counter as tick
        elapsed = tick()
        """
        assert rules_hit(code) == ["wall-clock"]

    def test_datetime_now(self):
        code = """
        from datetime import datetime
        stamp = datetime.now()
        """
        assert rules_hit(code) == ["wall-clock"]

    def test_simulated_clock_is_fine(self):
        code = """
        def advance(engine):
            return engine.now + 1.0
        """
        assert rules_hit(code) == []

    def test_time_sleep_is_not_a_clock_read(self):
        assert rules_hit("import time\ntime.sleep(0.1)\n") == []

    def test_benchmarks_are_out_of_scope(self):
        code = "import time\nt = time.time()\n"
        assert rules_hit(code, relpath="benchmarks/bench_x.py") == []

    def test_tests_are_in_scope(self):
        code = "import time\nt = time.time()\n"
        assert rules_hit(code, relpath="tests/test_x.py") == ["wall-clock"]

    def test_allowlisted_sweep_runner(self):
        code = "import time\nt = time.perf_counter()\n"
        assert rules_hit(code, relpath="src/repro/sweep/runner.py") == []


class TestUnseededRng:
    def test_global_random_module(self):
        assert rules_hit("import random\nx = random.random()\n") == ["unseeded-rng"]

    def test_numpy_legacy_seed_via_alias(self):
        code = """
        import numpy as np
        np.random.seed(42)
        """
        assert rules_hit(code) == ["unseeded-rng"]

    def test_numpy_legacy_rand(self):
        code = """
        import numpy
        values = numpy.random.rand(3)
        """
        assert rules_hit(code) == ["unseeded-rng"]

    def test_default_rng_is_fine(self):
        code = """
        import numpy as np
        rng = np.random.default_rng(7)
        values = rng.integers(0, 10, 3)
        """
        assert rules_hit(code) == []

    def test_explicit_random_instance_is_fine(self):
        code = """
        import random
        rng = random.Random(7)
        x = rng.random()
        """
        assert rules_hit(code) == []

    def test_seed_sequence_is_fine(self):
        code = """
        import numpy as np
        seq = np.random.SeedSequence(1)
        """
        assert rules_hit(code) == []

    def test_method_named_random_on_other_object_is_fine(self):
        assert rules_hit("x = rng.random()\n") == []


class TestUnorderedIteration:
    def test_for_over_set_literal(self):
        code = """
        for item in {1, 2, 3}:
            print(item)
        """
        assert rules_hit(code) == ["unordered-iteration"]

    def test_for_over_set_call(self):
        code = """
        for item in set(values):
            print(item)
        """
        assert rules_hit(code) == ["unordered-iteration"]

    def test_comprehension_over_listdir(self):
        code = """
        import os
        names = [n for n in os.listdir(".")]
        """
        assert rules_hit(code) == ["unordered-iteration"]

    def test_set_algebra(self):
        code = """
        for item in seen | {1, 2}:
            print(item)
        """
        assert rules_hit(code) == ["unordered-iteration"]

    def test_sorted_wrapping_is_fine(self):
        code = """
        import os
        for item in sorted(set(values)):
            print(item)
        for name in sorted(os.listdir(".")):
            print(name)
        """
        assert rules_hit(code) == []

    def test_out_of_scope_package(self):
        code = """
        for item in {1, 2, 3}:
            print(item)
        """
        assert rules_hit(code, relpath="src/repro/core/fixture.py") == []

    def test_set_constructor_argument_is_fine(self):
        # Building a set from an iterable is fine; only *iterating* one is not.
        assert rules_hit("unique = set(x + 1 for x in values)\n") == []


class TestEnvRead:
    def test_environ_get(self):
        code = """
        import os
        value = os.environ.get("HOME")
        """
        assert rules_hit(code) == ["env-read"]

    def test_environ_subscript_fires_once(self):
        code = """
        import os
        value = os.environ["HOME"]
        """
        findings = findings_for(code)
        assert [f.rule for f in findings] == ["env-read"]

    def test_getenv(self):
        assert rules_hit("import os\nv = os.getenv('HOME')\n") == ["env-read"]

    def test_from_import_alias(self):
        code = """
        from os import environ
        value = environ.get("HOME")
        """
        assert rules_hit(code) == ["env-read"]

    def test_unimported_local_named_environ_is_fine(self):
        assert rules_hit("environ = {}\nv = environ.get('x')\n") == []

    def test_tests_are_out_of_scope(self):
        code = "import os\nv = os.environ.get('HOME')\n"
        assert rules_hit(code, relpath="tests/test_x.py") == []


class TestMutableDefault:
    def test_list_literal_default(self):
        code = """
        def f(items=[]):
            return items
        """
        assert rules_hit(code) == ["mutable-default"]

    def test_dict_constructor_default(self):
        code = """
        def f(options=dict()):
            return options
        """
        assert rules_hit(code) == ["mutable-default"]

    def test_keyword_only_default(self):
        code = """
        def f(*, registry={}):
            return registry
        """
        assert rules_hit(code) == ["mutable-default"]

    def test_collections_factory_default(self):
        code = """
        import collections
        def f(counts=collections.Counter()):
            return counts
        """
        assert rules_hit(code) == ["mutable-default"]

    def test_none_default_is_fine(self):
        code = """
        def f(items=None):
            return items or []
        """
        assert rules_hit(code) == []

    def test_immutable_defaults_are_fine(self):
        code = """
        def f(shape=(3, 4), name="x", scale=1.5):
            return shape, name, scale
        """
        assert rules_hit(code) == []


class TestFloatEq:
    def test_equality_with_float_literal(self):
        code = """
        def f(x):
            return x == 0.5
        """
        assert rules_hit(code) == ["float-eq"]

    def test_inequality_with_float_literal(self):
        code = """
        def f(x):
            return x != 1.0
        """
        assert rules_hit(code) == ["float-eq"]

    def test_literal_on_left(self):
        code = """
        def f(x):
            return 0.0 == x
        """
        assert rules_hit(code) == ["float-eq"]

    def test_ordering_comparisons_are_fine(self):
        code = """
        def f(x):
            return x <= 0.0 or x >= 1.0
        """
        assert rules_hit(code) == []

    def test_integer_equality_is_fine(self):
        code = """
        def f(x):
            return x == 0
        """
        assert rules_hit(code) == []

    def test_properties_allowlist(self):
        code = """
        def f(x):
            return x == 0.0
        """
        assert rules_hit(code, relpath="src/repro/core/properties.py") == []

    def test_chained_comparison_flags_each_float_op(self):
        code = """
        def f(x, y):
            return x == 0.5 != y
        """
        findings = findings_for(code)
        assert [f.rule for f in findings] == ["float-eq", "float-eq"]
