"""Golden corpus: pinned simulator output on small off-default configs.

`corpus_pins` holds the configs, their pins and the script that
regenerates them. A change that claims to keep the simulator's
behaviour must leave every pin as it is.
"""

import pytest
from corpus_pins import CONFIGS, PINNED, measure


def test_the_pins_cover_every_config():
    assert list(PINNED) == list(CONFIGS)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_corpus_config_matches_its_pin(name, tmp_path):
    assert measure(name, tmp_path) == PINNED[name]
