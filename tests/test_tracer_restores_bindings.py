"""The benchmark's span tracer restores every binding it wraps, with
every experiment module loaded.

``e2ebench``'s tracer wraps each boundary entry point (module functions,
and methods such as ``PollModeDriver.rx_burst`` or
``ServiceChain.process``) for one rep and restores the originals when
the rep ends.  Since the registry imports an experiment module only
when its spec is looked up, ``default_registry()`` alone loads none of
them, so a snapshot taken after it misses the modules the tracer
imports itself.  This check builds every spec first, so every boundary
module is loaded before the snapshot, and then asserts, in a fresh
interpreter:

* every boundary entry's module was loaded when the snapshot was taken;
* every boundary entry was rebound while the tracer was active;
* every binding of every ``repro`` module is the same object afterwards.
"""

import json
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent
ROOT = SRC.parent

PROBE = """
import inspect, json, sys
from e2ebench import spans
from repro.lab.registry import default_registry

default_registry().specs()  # imports every experiment module


def bindings():
    out = {}
    for module_name, module in list(sys.modules.items()):
        if module_name == "repro" or module_name.startswith("repro."):
            for name, value in vars(module).items():
                out[(module_name, name)] = value
                if inspect.isclass(value):
                    for attr, raw in vars(value).items():
                        out[(module_name, name, attr)] = raw
    return out


def key(target):
    module_name, path = target.split(":")
    return (module_name, *path.split("."))


entries = spans.boundary_table(traced=True)
unloaded = sorted({e.target.split(":")[0] for e in entries} - set(sys.modules))
before = bindings()
tracer = spans.Tracer(entries)
with tracer:
    inside = bindings()
after = bindings()
wrapped = {k for k, v in before.items() if inside.get(k) is not v}
print(json.dumps({
    "entries": len(entries),
    "unloaded": unloaded,
    "skipped": list(tracer.skipped),
    "unwrapped": sorted(e.target for e in entries if key(e.target) not in wrapped),
    "changed": sorted(repr(k) for k, v in before.items() if after.get(k) is not v),
}))
"""


def test_every_boundary_binding_is_wrapped_then_restored():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": f"{SRC}:{ROOT}", "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["entries"] > 0
    assert report["unloaded"] == []
    assert report["skipped"] == []
    assert report["unwrapped"] == []
    assert report["changed"] == []
