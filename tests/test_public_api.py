"""Every public function, class and method of the package is used by the
package itself.

A helper that only the tests call measures nothing the CLI runs, so it is
deleted rather than kept. The check is by name: a definition counts as used
when its name appears anywhere in ``src/fuotacast`` as a variable, an
attribute or an imported name.
"""

import ast
import collections
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fuotacast"

# public names kept although nothing in the package refers to them
KEPT = {
    # the decode model's law in closed form, which the fec tests pin and
    # the planned completion-time distributions build on
    "fec.RatelessModel.completion_pmf",
    "fec.RatelessModel.completion_tail",
    "fec.RatelessModel.conditional_failure",
    # closed-form detection chance the interference-radius tests solve for
    "channel.LinkModel.detection_probability",
    # traffic-impact table; the density-trend acceptance gate runs it
    "benchmarks.density_sweep",
    # per-recipient tuples the benchmark's tracer reads for its sim counters
    "sim.SessionResult.outcomes",
}


def _definitions_and_references():
    references = collections.Counter()
    definitions = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references[node.id] += 1
            elif isinstance(node, ast.Attribute):
                references[node.attr] += 1
            elif isinstance(node, ast.alias):
                references[node.name.rsplit(".", 1)[-1]] += 1
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            definitions.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                definitions += [
                    f"{path.stem}.{node.name}.{sub.name}"
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")
                ]
    return definitions, references


def test_every_public_definition_is_referenced_in_the_package():
    definitions, references = _definitions_and_references()
    unused = sorted(
        d for d in definitions if references[d.rsplit(".", 1)[-1]] == 0 and d not in KEPT
    )
    assert not unused, f"public but used only outside the package: {unused}"


def test_every_kept_name_still_exists_and_is_still_unreferenced():
    definitions, references = _definitions_and_references()
    assert KEPT <= set(definitions)
    # once the package uses a kept name, it no longer needs the exemption
    assert all(references[name.rsplit(".", 1)[-1]] == 0 for name in KEPT)
