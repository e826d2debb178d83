import re

from hypothesis import settings

# Every run draws the same examples (seeded from each test's own code), so a
# failure replays on a clean checkout; per-test @settings keep their
# max_examples and deadline.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

_CRITERIA = {
    1: "squeezing anchor",
    2: "multimode additivity",
    3: "coherent reduction and anchor",
    4: "orthogonality invariant",
    5: "oracle equivalence",
    6: "weyl analytic check",
    7: "non-reversibility",
    8: "lorentz geodesic degeneracy",
    9: "condition-1 stationarity",
    10: "reversal symmetry",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            m = re.search(r"test_criterion_(\d+)", nodeid)
            if not m:
                continue
            num = int(m.group(1))
            ok = outcome == "passed" and results.get(num, True)
            results[num] = ok
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(results):
        status = "PASS" if results[num] else "FAIL"
        label = _CRITERIA.get(num, "")
        terminalreporter.write_line(f"[ACCEPTANCE] criterion {num} ({label}): {status}")
