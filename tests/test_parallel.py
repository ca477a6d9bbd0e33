from functools import partial

import pytest

from liquidbin._parallel import parallel_map


class CountingStr:
    """str, counting how often the parent pickles it for a worker."""

    pickles = 0

    def __call__(self, x):
        return str(x)

    def __reduce__(self):
        type(self).pickles += 1
        return (CountingStr, ())


# empty input, fewer items than workers, exact and ragged chunk boundaries
@pytest.mark.parametrize("count", [0, 1, 2, 7, 8, 9, 33, 361])
@pytest.mark.parametrize("jobs", [2, 3])
def test_parallel_map_equals_serial_map(jobs, count):
    fn = partial(divmod, 1000)
    items = [k + 1 for k in range(count)]
    assert parallel_map(fn, items, jobs) == [fn(x) for x in items]


@pytest.mark.parametrize("count, jobs, chunks", [(361, 2, 8), (361, 3, 12), (33, 2, 7), (3, 2, 3)])
def test_parallel_map_sends_about_four_chunks_per_worker(count, jobs, chunks):
    # fn travels once per chunk: ceil(count / (4 * workers)) items each
    CountingStr.pickles = 0
    assert parallel_map(CountingStr(), range(count), jobs) == [str(k) for k in range(count)]
    assert CountingStr.pickles == chunks


def test_parallel_map_propagates_worker_exceptions():
    items = ["1", "2", "3", "4", "oops", "6", "7", "8", "9"]
    with pytest.raises(ValueError, match="oops"):
        parallel_map(int, items, 2)
