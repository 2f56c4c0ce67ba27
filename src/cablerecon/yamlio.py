"""YAML through libyaml when PyYAML has it: the same documents and bytes as
the pure-Python SafeLoader and SafeDumper, which serve otherwise."""

from pathlib import Path

import yaml

LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def load_yaml(path):
    return yaml.load(Path(path).read_text(), Loader=LOADER)


def save_yaml(path, doc) -> None:
    Path(path).write_text(yaml.dump(doc, Dumper=DUMPER, sort_keys=False))
