"""YAML through libyaml when PyYAML has it: the same documents and bytes as
the pure-Python SafeLoader and SafeDumper, which serve otherwise."""

from pathlib import Path

import yaml

LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def load_yaml(path):
    """The document in `path`; a YAML syntax error is a one-line ValueError."""
    try:
        return yaml.load(Path(path).read_text(), Loader=LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}, line {mark.line + 1}, column {mark.column + 1}" if mark else path
        problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        raise ValueError(f"invalid YAML in {where}: {problem}") from None


def save_yaml(path, doc) -> None:
    Path(path).write_text(yaml.dump(doc, Dumper=DUMPER, sort_keys=False))
