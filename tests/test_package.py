import inspect

import gcomplexity


def test_all_exports_resolve():
    for name in gcomplexity.__all__:
        assert getattr(gcomplexity, name) is not None


def test_all_has_no_duplicates():
    names = list(gcomplexity.__all__)
    assert len(names) == len(set(names))


def test_only_the_pencil_takes_a_metric():
    # sigma_R is whitened once, in spd_pencil; nothing else takes a metric override
    for name in gcomplexity.__all__:
        obj = getattr(gcomplexity, name)
        if name == "spd_pencil" or not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        assert not {"sigma_R", "metric"} & set(params), name
