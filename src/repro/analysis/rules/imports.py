"""``layering`` and ``stdlib-only``: the import architecture, enforced.

The package DAG this repo is built around (engine under service under
api; the numeric foundation ignorant of everything above it) only
stays a DAG if something checks it.  Two rules share the import scan:

* **layering** — every first-party *module-level* import must appear
  in the explicit allowed-dependency map below.  Function-level (lazy)
  imports are exempt: they are the codebase's sanctioned
  cycle-breaking idiom (e.g. ``repro.pipeline.flow`` building defended
  layouts through ``repro.defense`` lazily), and they cannot create
  import cycles.  The map is intentionally explicit rather than
  level-numbered so adding a dependency is a reviewed one-line diff
  here, not an accident.
* **stdlib-only** — imports outside the standard library and the
  baked-in numeric allowlist (numpy, networkx, scipy) are errors:
  the deployment story is "clone and run", with no pip install.
"""

from __future__ import annotations

import ast
import sys

from ..engine import ModuleSource, Rule

#: package -> first-party packages it may import at module level.
#: cells/netlist are mutually tangled foundation siblings (the cell
#: library describes netlist primitives and vice versa) — a known,
#: contained cycle.
ALLOWED_DEPS: dict[str, frozenset[str]] = {
    name: frozenset(deps)
    for name, deps in {
        "nn": (),
        "cells": ("netlist",),
        "netlist": ("cells",),
        "layout": ("cells", "netlist"),
        "split": ("cells", "layout", "netlist"),
        "core": ("cells", "layout", "netlist", "nn", "split"),
        "attacks": ("cells", "core", "layout", "netlist", "nn", "split"),
        "obs": ("core",),
        "analysis": ("core",),
        "pipeline": (
            "cells", "core", "layout", "netlist", "nn", "obs", "split",
        ),
        "eval": (
            "attacks", "cells", "core", "layout", "netlist", "nn",
            "pipeline", "split",
        ),
        "defense": (
            "attacks", "cells", "core", "eval", "layout", "netlist",
            "nn", "pipeline", "split",
        ),
        "experiments": (
            "attacks", "cells", "core", "defense", "eval", "layout",
            "netlist", "nn", "obs", "pipeline", "split",
        ),
        "service": (
            "attacks", "cells", "core", "defense", "eval",
            "experiments", "layout", "netlist", "nn", "obs",
            "pipeline", "split",
        ),
        "api": (
            "attacks", "cells", "core", "defense", "eval",
            "experiments", "layout", "netlist", "nn", "obs",
            "pipeline", "service", "split",
        ),
    }.items()
}

#: non-stdlib imports the container bakes in.
STDLIB_ALLOWLIST = frozenset({"numpy", "networkx", "scipy", "repro"})


def _package_of(module: ModuleSource) -> tuple[str | None, list[str]]:
    """(subpackage name, package path parts) of a module under
    ``src/repro/``; (None, []) for files outside it or directly at the
    package top (``__init__``/``__main__`` may import anything)."""
    parts = module.relpath.split("/")
    if "repro" not in parts:
        return None, []
    inner = parts[parts.index("repro") + 1 : -1]  # package dirs only
    if not inner:
        return None, []
    return inner[0], inner


def _module_level_imports(tree: ast.Module):
    """Import nodes outside any function/class body (``if``/``try``
    gates at module level still count — they run at import time)."""
    stack: list[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            for child in ast.iter_child_nodes(node):
                stack.append(child)


def _first_party_targets(
    node: ast.Import | ast.ImportFrom, package_path: list[str]
) -> list[str]:
    """Top-level repro subpackages this import statement reaches."""
    targets = []
    if isinstance(node, ast.Import):
        for alias in node.names:
            parts = alias.name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                targets.append(parts[1])
    else:
        mod = (node.module or "").split(".") if node.module else []
        if node.level:
            base = package_path[: len(package_path) - (node.level - 1)]
            resolved = base + mod
            if resolved:
                targets.append(resolved[0])
        elif mod and mod[0] == "repro" and len(mod) > 1:
            targets.append(mod[1])
    return targets


class LayeringRule(Rule):
    rule_id = "layering"
    severity = "error"
    description = (
        "module-level first-party imports must respect the package "
        "DAG in ALLOWED_DEPS (lazy in-function imports are exempt)"
    )

    def check(self, module: ModuleSource) -> list:
        package, package_path = _package_of(module)
        if package is None:
            return []
        allowed = ALLOWED_DEPS.get(package)
        findings = []
        for node in _module_level_imports(module.tree):
            for target in _first_party_targets(node, package_path):
                if target == package or target not in ALLOWED_DEPS:
                    # self-imports fine; a target that is a module (not
                    # a subpackage) resolves to its own package name
                    # via package_path and lands in the first branch.
                    if target in ALLOWED_DEPS or target == package:
                        continue
                if allowed is None:
                    findings.append(
                        module.finding(
                            self,
                            node.lineno,
                            f"package {package!r} is not registered in "
                            f"ALLOWED_DEPS "
                            f"(repro/analysis/rules/imports.py); new "
                            f"packages must declare their layer",
                        )
                    )
                    break
                if target not in allowed:
                    findings.append(
                        module.finding(
                            self,
                            node.lineno,
                            f"{package} must not import {target} at "
                            f"module level (allowed: "
                            f"{sorted(allowed)}); use a lazy import "
                            f"if the dependency is intentional",
                        )
                    )
        return findings


class StdlibOnlyRule(Rule):
    rule_id = "stdlib-only"
    severity = "error"
    description = (
        "imports outside the stdlib and the baked-in allowlist "
        "(numpy, networkx, scipy) break the no-pip-install "
        "deployment contract"
    )

    def check(self, module: ModuleSource) -> list:
        findings = []
        for node in ast.walk(module.tree):
            names: list[str] = []
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [(node.module or "").split(".")[0]]
            for name in names:
                if (
                    name
                    and name not in sys.stdlib_module_names
                    and name not in STDLIB_ALLOWLIST
                ):
                    findings.append(
                        module.finding(
                            self,
                            node.lineno,
                            f"third-party import {name!r} is not in "
                            f"the baked-in allowlist "
                            f"{sorted(STDLIB_ALLOWLIST - {'repro'})}",
                        )
                    )
        return findings
