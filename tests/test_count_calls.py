"""``count_calls``, the count pins' measure, leaves other profile hooks be.

``tests/census.py tests`` runs the whole suite under its own
``sys.setprofile`` hook; a count pin that dropped it would blind the census
for every test after it.
"""

import sys

from tests.conftest import count_calls


def _work():
    return 1


def test_an_outer_profile_hook_stays_set_and_sees_the_calls():
    seen = []

    def outer(frame, event, _arg):
        if event == "call" and frame.f_code is _work.__code__:
            seen.append(event)

    previous = sys.getprofile()
    sys.setprofile(outer)
    try:
        _, entered = count_calls(lambda: [_work() for _ in range(3)],
                                 lambda code: code is _work.__code__)
        after = sys.getprofile()
        _work()
    finally:
        sys.setprofile(previous)
    assert entered == 3
    assert after is outer
    assert seen == ["call"] * 4
