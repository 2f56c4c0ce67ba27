"""YAML through libyaml when PyYAML has it: the same documents and bytes as
the pure-Python SafeLoader and SafeDumper, which serve otherwise, but for a
number with an exponent and no dot or no exponent sign: a float here, a
string in YAML 1.1."""

import re
from pathlib import Path

import yaml


class LOADER(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader, with its own resolver table that reads `1e-3`, `1e3`
    and `1.0e300` as floats too."""


LOADER.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)
DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def load_yaml(path):
    """The document in `path`; a YAML syntax error or bytes that are not UTF-8 are a
    one-line ValueError naming the file."""
    try:
        return yaml.load(Path(path).read_text(), Loader=LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}, line {mark.line + 1}, column {mark.column + 1}" if mark else path
        problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        raise ValueError(f"invalid YAML in {where}: {problem}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_yaml(path, doc) -> None:
    Path(path).write_text(yaml.dump(doc, Dumper=DUMPER, sort_keys=False))
