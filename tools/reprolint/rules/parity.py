"""RL004 — every solver backend entry point is in the parity matrix.

The validation parity matrix (``src/repro/validation/parity.py``) is
the continuously-enforced form of the bit-parity contract: dense ==
template == batched exactly, sparse within tolerance.  A new backend
that never enters the matrix is unvalidated by construction.  This rule
cross-references the public ``solve_*``/``batched_*`` functions defined
in the files named by ``[rules.RL004] entrypoint_files`` against the
``PARITY_CLASSES`` registry in ``registry_file`` (``runtime/solvers.py``,
where the batch solvers key their cache on it): every entry point must
be registered as ``"exact"`` or ``"tolerance"``, and the registry must
not carry stale names.
"""

from __future__ import annotations

import ast

from tools.reprolint.engine import Finding, LintContext

__all__ = ["ParityRegistrationRule"]

_PREFIXES = ("solve_", "batched_")


class ParityRegistrationRule:
    code = "RL004"
    name = "parity-registration"
    description = (
        "public solve_*/batched_* backend entry points must be registered "
        "in runtime/solvers.py PARITY_CLASSES as exact or tolerance"
    )

    def check_project(self, context: LintContext) -> list[Finding]:
        config = context.manifest.rule_config(self.code)
        entrypoint_files = config.get("entrypoint_files", [])
        registry_file = config.get("registry_file")
        registry_name = config.get("registry_name", "PARITY_CLASSES")
        classes = tuple(config.get("classes", ["exact", "tolerance"]))
        if not entrypoint_files or not registry_file:
            return []

        entry_points: dict[str, tuple[str, int]] = {}
        findings: list[Finding] = []
        for rel in entrypoint_files:
            module = context.load(rel)
            if module is None:
                findings.append(
                    Finding(
                        rule=self.code,
                        path=rel,
                        line=1,
                        message="configured entrypoint file is missing or unparsable",
                    )
                )
                continue
            for node in module.tree.body:
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith(_PREFIXES)
                    and not node.name.startswith("_")
                ):
                    entry_points[node.name] = (rel, node.lineno)

        registry = _load_registry(context, registry_file, registry_name)
        if registry is None:
            findings.append(
                Finding(
                    rule=self.code,
                    path=registry_file,
                    line=1,
                    message=(
                        f"no module-level dict literal named {registry_name} "
                        "found; the parity registry is the machine-readable "
                        "half of the bit-parity contract"
                    ),
                )
            )
            return findings

        for name, (rel, lineno) in sorted(entry_points.items()):
            if name not in registry:
                findings.append(
                    Finding(
                        rule=self.code,
                        path=rel,
                        line=lineno,
                        message=(
                            f"backend entry point {name!r} is not registered in "
                            f"{registry_file} {registry_name}; add it with class "
                            f"{' or '.join(repr(c) for c in classes)} and cover "
                            "it in the parity matrix"
                        ),
                    )
                )
        for name, (value, lineno) in sorted(registry.items()):
            if name not in entry_points:
                findings.append(
                    Finding(
                        rule=self.code,
                        path=registry_file,
                        line=lineno,
                        message=(
                            f"{registry_name} registers {name!r}, but no such "
                            "entry point exists in the configured files "
                            "(stale registration)"
                        ),
                    )
                )
            elif value not in classes:
                findings.append(
                    Finding(
                        rule=self.code,
                        path=registry_file,
                        line=lineno,
                        message=(
                            f"{registry_name}[{name!r}] = {value!r} is not a "
                            f"known parity class {classes}"
                        ),
                    )
                )
        return findings


def _load_registry(
    context: LintContext, registry_file: str, registry_name: str
) -> dict[str, tuple[str, int]] | None:
    """``{entry point name: (class, line)}`` from the registry dict literal."""
    module = context.load(registry_file)
    if module is None:
        return None
    for node in module.tree.body:
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        else:
            continue
        if (
            isinstance(target, ast.Name)
            and target.id == registry_name
            and isinstance(value, ast.Dict)
        ):
            registry: dict[str, tuple[str, int]] = {}
            for key, entry in zip(value.keys, value.values):
                if (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and isinstance(entry, ast.Constant)
                    and isinstance(entry.value, str)
                ):
                    registry[key.value] = (entry.value, key.lineno)
            return registry
    return None
