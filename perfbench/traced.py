"""Run one phcle CLI command with spans around the package's functions.

    python perfbench/traced.py SPANS_JSON -- phcle-arguments...

Wrappers replace the public functions of each phcle module on every
module attribute that names them (``phcle.trainer.grad_C`` is the name the
trainer resolves, not ``phcle.relational.grad_C``). Spans stay in memory
and are written to SPANS_JSON when the command returns. Needs the
package importable, e.g. ``PYTHONPATH=src``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import COUNTERS, LAYERS, NAMED, NOT_WRAPPED  # noqa: E402


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, None, False]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span[4] = counter(bound.arguments, result)
                except (KeyError, AttributeError, TypeError, IndexError):
                    # The function's arguments or result changed shape;
                    # keep the span and flag the lost counters.
                    span[4] = {"counter_error": 1}
            return result

        return wrapper


def install(tracer: Tracer):
    """Wrap every public function defined in a phcle layer module, on every
    phcle module that binds it. Returns (cli module, wrapped names, absent
    names); a layer module that no longer exists is skipped."""
    modules = {"__init__": importlib.import_module("phcle")}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"phcle.{layer}")
        except ModuleNotFoundError:
            continue
    wrappers, wrapped = {}, []
    for layer, module in modules.items():
        for attr, fn in vars(module).items():
            name = f"{layer}.{attr}"
            if (inspect.isfunction(fn) and fn.__module__ == f"phcle.{layer}"
                    and not attr.startswith("_") and name not in NOT_WRAPPED):
                wrappers[fn] = tracer.wrap(name, fn)
                wrapped.append(name)
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])
    absent = [name for name in NAMED if name not in wrapped]
    return modules["cli"], sorted(wrapped), absent


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: traced.py SPANS_JSON -- phcle-arguments...", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    cli, wrapped, absent = install(tracer)
    try:
        code = cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "wrapped": wrapped, "absent": absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
