"""Campaign files: flat key-value text with one section per campaign.

Example::

    [campaign:poisson-small]
    problem = poisson1d
    nu = 5
    r = 64
    seeds = 0 1 2
    solvers = lm mlm
    epsilon = 1e-4
    max_outer_iter = 2000

The keys follow the two dataclasses, so each setting is named once.
`seeds` and `solvers` take space-separated lists; every other str, int or
float field of `bench.Campaign` but `name` is a key of that type, of
which `problem` is required; and the two fields of `LmConfig`, `epsilon`
and `max_outer_iter`, may be set as overrides of the one config both
solvers run.  The paper's other solver values are module constants of
`lm` and `mlm`, and its activation the sigmoid of `activations`, not keys.
"""

import configparser
from dataclasses import fields

from .bench import Campaign
from .lm import LmConfig

_CAMPAIGN_KEYS = {
    f.name: f.type
    for f in fields(Campaign)
    if f.type in (str, int, float) and f.name != "name"
}
_CAMPAIGN_KEYS["seeds"] = lambda raw: tuple(int(tok) for tok in raw.split())
_CAMPAIGN_KEYS["solvers"] = lambda raw: tuple(raw.split())

_OVERRIDE_TYPES = {f.name: int if f.type is int else float for f in fields(LmConfig)}


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
    for key, raw in section.items():
        convert = _CAMPAIGN_KEYS.get(key) or _OVERRIDE_TYPES.get(key)
        if convert is None:
            raise ValueError(f"campaign {name!r}: unknown key {key!r}")
        try:
            kwargs[key] = convert(raw)
        except ValueError as exc:
            raise ValueError(f"campaign {name!r}: key {key!r}: {exc}") from None
    if "problem" not in kwargs:
        raise ValueError(f"campaign {name!r}: missing the required 'problem' key")
    kwargs["overrides"] = {key: kwargs.pop(key) for key in _OVERRIDE_TYPES if key in kwargs}
    return Campaign(**kwargs)
