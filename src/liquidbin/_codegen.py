"""The one way the package turns Python source it generated into functions:
the per-b-map solve and walk-step kernels of regions and the per-N bin
event loop of dynamics."""
from __future__ import annotations

from typing import Callable


def compile_functions(source: str, filename: str, *names: str, **env: object) -> tuple[Callable, ...]:
    """The functions called names, defined by source: compiled once
    (filename names the source in tracebacks) and run in a fresh namespace
    holding env.  They are taken out of the namespace, their globals, so
    functions and namespace form no cycle and leave memory by reference
    counting alone."""
    namespace = dict(env)
    exec(compile(source, filename, "exec"), namespace)
    return tuple(namespace.pop(name) for name in names)
