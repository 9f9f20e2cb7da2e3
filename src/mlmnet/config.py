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

Keys `problem` (required), `nu`, `r`, `activation`, `seeds`, `solvers`,
`penalty`, `eps_amg`, `test_points_per_axis`, `fd_resolution` configure
the campaign; any field of the solver configuration (eta1, eta2, gamma1,
gamma2, gamma3, lambda0, lambda_min, epsilon, theta, max_outer_iter,
cg_max_iter, kappa_h, epsilon_h, max_coarse_iter) may be set as an
override of the one `MlmConfig` both solvers run.
"""

import configparser

from .bench import Campaign
from .mlm import MlmConfig

_CAMPAIGN_KEYS = {
    "problem": str,
    "nu": float,
    "r": int,
    "activation": str,
    "penalty": float,
    "eps_amg": float,
    "test_points_per_axis": int,
    "fd_resolution": int,
}

_OVERRIDE_TYPES = {
    name: int if spec.type is int else float
    for name, spec in MlmConfig.__dataclass_fields__.items()
}


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
