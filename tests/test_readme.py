"""The README's examples run as written against the current API, and its stated size domain
is the code's."""

import re
import tracemalloc
from pathlib import Path

from rangesim import airmodel, simlab
from rangesim.airmodel import MAX_BLOCKS, MAX_SUBCARRIERS, MAX_TAPS, MAX_TILE_BINS, MAX_TILE_WIDTH
from rangesim.simlab import SimConfig, parse_config_text, run_sweep

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block():
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_detects_its_user(capsys):
    exec(compile(library_use_block(), "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "{2}"


def test_config_example_parses_and_validates():
    section = README.read_text().split("### Config files", 1)[1]
    text = re.search(r"```ini\n(.*?)```", section, re.DOTALL).group(1)
    cfg = parse_config_text(text)
    assert (cfg.num_users, cfg.max_cfo, cfg.mode) == (3, 0.1, "waveform")


def test_readme_quotes_every_size_cap_as_the_code_sets_it():
    quoted = dict(re.findall(r"`(MAX_\w+)` = (\d+)", README.read_text()))
    caps = {name: value for name, value in vars(airmodel).items() if name.startswith("MAX_")}
    assert {name: int(value) for name, value in quoted.items()} == caps


def test_a_waveform_sweep_at_the_caps_peaks_under_the_figure_readme_states():
    # the widest layout, the most codes and taps, and a block of 16 trial indices and one more:
    # two draws' leakage kernels, (2, 15, 1024, 1024) floats, are about 240 MiB of the peak
    stated = re.search(r"sweep at the caps \(.*?\) peaks under (\d+) MiB", README.read_text())
    cfg = SimConfig(n_subcarriers=MAX_SUBCARRIERS, n_blocks=MAX_BLOCKS, tile_width=MAX_TILE_WIDTH,
                    n_tiles=MAX_TILE_BINS // MAX_TILE_WIDTH, cp_ranging=MAX_SUBCARRIERS,
                    channel_taps=MAX_TAPS, cp_data=MAX_TAPS + 1, max_delay=0, max_cfo=0.0,
                    num_users=MAX_TILE_WIDTH - 1, trials=17, snr_list_db=(20.0,))
    tracemalloc.start()
    try:
        (row,) = run_sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        airmodel._tile_tap_phasors.cache_clear()
        simlab._block_draw.cache_clear()
    assert row.p_f == 0.0
    assert peak < int(stated.group(1)) * 2**20
