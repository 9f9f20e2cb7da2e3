"""Campaign files: flat key-value text with one section per campaign.

Example::

    [campaign:poisson-small]
    problem = poisson1d
    nu = 5
    r = 64
    activation = sigmoid
    seeds = 0 1 2
    solvers = lm mlm
    epsilon = 1e-4
    max_outer_iter = 2000

The keys follow the two dataclasses, so each setting is named once.
`seeds` and `solvers` take space-separated lists; every other str, int or
float field of `bench.Campaign` but `name` is a key of that type, of
which `problem` is required; and every field of `MlmConfig` may be set as
an override of the one config both solvers run.
"""

import configparser
from dataclasses import fields

from .bench import Campaign
from .mlm import MlmConfig

_CAMPAIGN_KEYS = {
    f.name: f.type
    for f in fields(Campaign)
    if f.type in (str, int, float) and f.name != "name"
}

_OVERRIDE_TYPES = {f.name: int if f.type is int else float for f in fields(MlmConfig)}


def parse_campaign_file(path):
    """Parse all [campaign:*] sections of a config file into Campaigns."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    with open(path) as stream:
        parser.read_file(stream)
    campaigns = []
    for section in parser.sections():
        if not section.startswith("campaign:"):
            raise ValueError(f"unexpected section [{section}]; sections are [campaign:<name>]")
        campaigns.append(_parse_section(section[len("campaign:"):], parser[section]))
    if not campaigns:
        raise ValueError("config file defines no [campaign:*] section")
    return campaigns


def _parse_section(name, section):
    kwargs = {"name": name}
    overrides = {}
    for key, raw in section.items():
        if key == "seeds":
            kwargs["seeds"] = tuple(int(tok) for tok in raw.split())
        elif key == "solvers":
            kwargs["solvers"] = tuple(raw.split())
        elif key in _CAMPAIGN_KEYS:
            kwargs[key] = _CAMPAIGN_KEYS[key](raw)
        elif key in _OVERRIDE_TYPES:
            overrides[key] = _OVERRIDE_TYPES[key](raw)
        else:
            raise ValueError(f"unknown key {key!r} in [campaign:{name}]")
    if "problem" not in kwargs:
        raise ValueError(f"[campaign:{name}] is missing the required 'problem' key")
    kwargs["overrides"] = overrides
    return Campaign(**kwargs)
