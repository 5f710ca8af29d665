import re

from conftest import load_script


def test_negativity_sweep_runs_the_three_degree_six_surfaces(capsys):
    assert load_script("negativity_sweep").main([]) == 0
    out = capsys.readouterr().out
    for name, verdict in (
        ("sextic-ruled", "NOT_CREMONA_EQUIVALENT_TO_PLANE"),
        ("dp6", "CE_TO_PLANE_VIA_FIBRATION"),
        ("bordiga", "CE_TO_PLANE_VIA_GOOD_MODEL"),
    ):
        assert re.search(rf" {name} .*-> {verdict}$", out, re.MULTILINE), (name, out)
