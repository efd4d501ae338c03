"""Scenario text that `config._read_block_yaml` declines, read by PyYAML.

`config.load_config` imports this module only for such a text, so a plain
block YAML scenario, as every bundled one is, loads neither it nor PyYAML.
"""

import yaml

from .schema import ConfigError

__all__ = ["load_yaml"]


def load_yaml(text: str):
    """`text` read by PyYAML, with libyaml's parser where PyYAML has it;
    constructor and resolvers are the same either way. A key that repeats
    among one mapping's own keys is an error; a `<<` merge may still
    supply a key that the mapping sets again."""

    class Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
        def construct_mapping(self, node, deep=False):
            own = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
            self.flatten_mapping(node)  # puts the merged keys in front
            seen = set()
            for key_node in own:
                if not isinstance(key_node, yaml.ScalarNode):
                    continue  # PyYAML rejects it as unhashable
                key = self.construct_object(key_node)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"found duplicate key {key!r}", key_node.start_mark
                    )
                seen.add(key)
            return super().construct_mapping(node, deep=deep)

    try:
        return yaml.load(text, Loader=Loader)
    except yaml.YAMLError as exc:  # one line: the problem and its position
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = " ".join((getattr(exc, "problem", None) or str(exc)).split())
        raise ConfigError("<root>", f"invalid YAML: {problem}{where}") from None
