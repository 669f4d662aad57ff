"""Golden corpus: pinned simulator output on small off-default configs.

`pins` holds the configs and their computation, and `pins.json` their
pins. A change that claims to keep the simulator's behaviour must leave
every pin as it is.
"""

import pytest
from pins import CONFIGS, corpus, load

PINNED = load()["simulator"]["corpus"]


def test_the_pins_cover_every_config():
    assert list(PINNED) == list(CONFIGS)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_corpus_config_matches_its_pin(name, tmp_path):
    assert corpus(name, tmp_path) == PINNED[name]
