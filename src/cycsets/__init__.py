"""cycsets: cyclic vertex subsets of regular graphs.

A subset S of V(G) is cyclic when G[S] has a Hamilton cycle.  This
package builds the relevant graph families, counts and estimates cyclic
subsets, certifies Hamiltonicity constructively, and verifies the
supporting binomial/normal-window estimates numerically.

Names are imported from their modules (`cycsets.counting`,
`cycsets.hamilton`, ...); the package itself exports only `__version__`,
so `import cycsets` loads no module of it.
"""

__version__ = "0.1.0"
