"""Run one gelfand CLI invocation in this process, with either layer spans
or exact operation counters installed, and write what was recorded to a
JSON file when the invocation ends.

usage: python tracer.py spans|counts OUTFILE CLI-ARG...

The CLI's stdout is left untouched, so the caller can check it against
the golden digest exactly as for an untraced run.  The two modes never
run together: counting wraps the exact arithmetic, which would inflate
the self times of the layers that call it.
"""

import time

START_NS = time.perf_counter_ns()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import gelfand.cli  # noqa: E402  (imports every module on the CLI's path)
from gelfand.classes import enumerate_classes  # noqa: E402
from gelfand.colored import ColoredPermutation  # noqa: E402
from gelfand.cyclotomic import Cyclotomic  # noqa: E402
from gelfand.model import ModelBasis  # noqa: E402

# Public functions timed as layer spans, by defining module.
SPAN_FUNCTIONS = {
    "characters": (
        "character_table",
        "wreath_character",
        "delta1",
        "decompose",
        "inner_product",
    ),
    "classes": (
        "enumerate_classes",
        "normal_element",
        "enumerate_involution_classes",
    ),
    "model": ("model_character", "predicted_labels"),
}
ARITHMETIC = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
)


class Recorder:
    """Spans as [name, start_ns, end_ns, parent index], plus sizes read
    from returned objects and exact operation counts."""

    def __init__(self) -> None:
        self.spans = []
        self.stack = [-1]
        self.sizes = {}
        self.counts = {}

    def span(self, name, fn, on_return=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, time.perf_counter_ns(), 0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = time.perf_counter_ns()
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def counter(self, key, fn):
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def size(self, key, value) -> None:
        self.sizes[key] = max(self.sizes.get(key, 0), value)


def _rebind(original, replacement) -> None:
    """Point every gelfand module attribute that holds original at
    replacement, so calls through any importing module are seen."""
    for name, module in list(sys.modules.items()):
        if name != "gelfand" and not name.startswith("gelfand."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install_spans(rec: Recorder) -> None:
    def basis_sizes(args, _):
        rec.size("model.dimension", args[0].dimension)
        rec.size("model.blocks", len(args[0].blocks))

    def table_sizes(args, rows):
        r, p, _, n = args[:4]
        rec.size("characters.rows", len(rows))
        rec.size("characters.cells", len(rows) * len(enumerate_classes(r, p, n)))

    on_return = {
        "character_table": table_sizes,
        "enumerate_classes": lambda args, out: rec.size("classes.count", len(out)),
    }
    for module_name, names in SPAN_FUNCTIONS.items():
        module = sys.modules["gelfand." + module_name]
        for attr in names:
            original = getattr(module, attr)
            _rebind(
                original,
                rec.span(module_name + "." + attr, original, on_return.get(attr)),
            )
    # A class wraps its constructor in place, so every reference sees it.
    ModelBasis.__init__ = rec.span(
        "model.ModelBasis", ModelBasis.__init__, basis_sizes
    )


def install_counters(rec: Recorder) -> None:
    for attr in ARITHMETIC:
        if attr in vars(Cyclotomic):
            original = getattr(Cyclotomic, attr)
            setattr(Cyclotomic, attr, rec.counter("cyclotomic.arith.calls", original))
    ColoredPermutation.__init__ = rec.counter(
        "colored.ColoredPermutation.constructed", ColoredPermutation.__init__
    )


def main() -> int:
    mode, outfile, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    rec = Recorder()
    if mode == "spans":
        install_spans(rec)
        run = rec.span("cli.main", gelfand.cli.main)
    elif mode == "counts":
        install_counters(rec)
        run = gelfand.cli.main
    else:
        raise SystemExit("mode must be 'spans' or 'counts', got %r" % mode)
    code = run(argv)
    sys.stdout.flush()
    wall_ns = time.perf_counter_ns() - START_NS
    with open(outfile, "w") as fh:
        json.dump(
            {
                "wall_ns": wall_ns,
                "spans": rec.spans,
                "sizes": rec.sizes,
                "counts": rec.counts,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
