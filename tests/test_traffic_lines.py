"""``tools/traffic_lines.py``, which lists the package lines no benchmark
workload runs: its collector on a small synthetic module. No workload
runs here."""

import importlib.util
import textwrap
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "traffic_lines.py"
_SPEC = importlib.util.spec_from_file_location("traffic_lines", _PATH)
traffic_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(traffic_lines)

SOURCE = textwrap.dedent(
    '''\
    import functools


    def used(x):
        """A docstring holds no bytecode."""
        if x > 0:
            return 1
        return -1


    def unused():
        return 2


    @functools.lru_cache
    def decorated(n):
        total = (
            n
            + 1
        )
        return total


    class Box:
        scale = 2

        def items(self):
            return [i * self.scale for i in range(3)]

        def never(self):
            def inner():
                return 0
            return inner


    square = lambda v: v * v
    '''
)


def _module(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SOURCE, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("synthetic", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return path, module


def test_body_lines_leave_out_module_class_and_docstring_lines(tmp_path):
    path, _ = _module(tmp_path)
    lines = traffic_lines.body_lines(path)
    # a decorated function starts at its decorator; its def line holds no bytecode
    assert sorted(n for n, name in lines.items() if name == "decorated") == [15, 17, 18, 19, 21]
    # nested functions and comprehensions count for the top-level function
    assert sorted(n for n, name in lines.items() if name == "Box.never") == [30, 31, 32, 33]
    assert sorted(n for n, name in lines.items() if name == "Box.items") == [27, 28]
    assert 5 not in lines and 1 not in lines and 25 not in lines


def test_unreached_lists_only_lines_no_call_ran(tmp_path):
    path, module = _module(tmp_path)

    def run():
        module.used(1)
        module.decorated(2)
        module.Box().items()

    report = traffic_lines.unreached([path], run)
    assert report == {
        str(path.resolve()): {"used": [8], "unused": [11, 12], "Box.never": [30, 31, 32, 33], "<lambda>": [36]}
    }


def test_ranges_join_consecutive_lines():
    assert traffic_lines.ranges([3, 4, 5, 9, 11, 12]) == "3-5, 9, 11-12"
    assert traffic_lines.ranges([]) == ""
