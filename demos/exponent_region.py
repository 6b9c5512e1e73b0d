"""Scan of the admissible (b1, b2) exponent region.

The local well-posedness argument needs a pair of time-regularity
exponents satisfying a list of strict inequalities; every admissible pair
also yields twelve positive T-gain exponents.  This demo scans the
rectangle (1/2, 1) x [0, 1/2] in both dimensions and compares the outcome
with the reference boxes stored in the package.

In d=2 the reference box sits inside the admissible set.  In d=3 it does
not: every sample of that box violates the fourth auxiliary constraint as
stated, and the scan reports witnesses instead of hiding the gap.
"""

from zrbr.exponents import REFERENCE_BOX, region_scan, theta_values, derive


def main():
    for d in (2, 3):
        scan = region_scan(d, resolution=2e-3)
        box = REFERENCE_BOX[d]
        n = len(scan.violated_codes)
        print(f"d={d}: {int(scan.admissible.sum())} admissible of {n} samples")
        print(f"  reference box b1 in {box['b1']}, b2 in {box['b2']}")
        print(f"  contained in the admissible set: {scan.reference_box_contained}")
        if scan.witnesses:
            w = scan.witnesses[0]
            print(f"  first witness: (b1, b2) = ({w['b1']:.3f}, {w['b2']:.3f})"
                  f" violates {w['violated']}")
        print(f"  pointwise admissible b1 range: {scan.pointwise_b1_range}")
        print(f"  uniform-in-b2 b1 range:        {scan.uniform_b1_range}")
        print()

    p = derive(0.8, 0.1, 2)
    rep = theta_values(p)
    print("T-gain exponents at (b1, b2) = (0.8, 0.1), d=2:")
    for name, val in rep.values.items():
        print(f"  {name:>10}: {val:8.4f}")
    print(f"  minimum: {rep.min_theta:.4f} (positive means every estimate gains a power of T)")


if __name__ == "__main__":
    main()
