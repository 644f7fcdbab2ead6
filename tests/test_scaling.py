"""scripts/scaling.py at the two smallest sizes of each kernel."""

import random

from artinpal import group, palindromes
from scripts.scaling import KERNELS, rows


def test_scaling_gives_a_row_per_kernel_and_size():
    table = {kernel.name: list(rows(kernel, 2)) for kernel in KERNELS}
    for kernel in KERNELS:
        first, second = table[kernel.name]
        assert (first["kernel"], first["size"]) == (kernel.name, kernel.sizes[0])
        assert (second["kernel"], second["size"]) == (kernel.name, kernel.sizes[1])
        assert first["cpu_growth_per_doubling"] is None
        assert first["work"] > 0 and second["work"] > 0
        assert second["work_growth_per_doubling"] is not None
        if kernel.name.startswith("palindromes."):
            # the work is the length of the positive core the peel runs on
            size = kernel.sizes[0]
            inputs = kernel.inputs(random.Random(f"scaling {kernel.name} {size}"), size)
            assert first["work"] == sum(group.length(palindromes._core(p)[0])
                                        for p in inputs)
        if kernel.name.startswith("palindromes.decompose_rev_tau/"):
            # inputs are palindromes that tau fixes, so every one is answered
            assert all(group.is_palindrome(x) and group.eq(group.tau(x), x)
                       for x in inputs)
    assert "palindromes.decompose_rev_tau/A5" in table
    # the closure runs from a cleared cache, so every input closes its class
    assert [r["work"] for r in table["oracle.class_of/D4"]] == [70, 390]
    dynnikov = table["orderings.dynnikov_action"]
    assert [r["work"] for r in dynnikov] == [20 * 100, 20 * 200]
    assert dynnikov[1]["work_growth_per_doubling"] == 2.0
