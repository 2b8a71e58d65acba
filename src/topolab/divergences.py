"""Registry of the documented finite-scale degeneracies.

These are behaviours that are special to finite carriers and deliberately
diverge from the general (infinite) theory.  The suite asserts each one
positively; failures here mean the finite world stopped being degenerate,
which would be a genuine bug.
"""

DIVERGENCES = {
    "proper-constant-true": (
        "Every subset of a finite space is compact, so preimages of compact "
        "saturated sets are compact and every continuous map tests proper."
    ),
    "ultra-space-identity": (
        "Filters on a finite carrier are principal, so the only ultrafilters "
        "are the point filters and the ultrafilter space is homeomorphic to "
        "its base via the unit."
    ),
    "sobrification-is-t0": (
        "Every finite space is weakly sober (an irreducible closed set is an "
        "irredundant finite union of point closures, hence a single point "
        "closure), so sobrification agrees with the T0 quotient up to "
        "homeomorphism."
    ),
    "reflected-unit-epi": (
        "The counterexamples to the reflected unit being an epimorphism in "
        "the T0 class need infinite spaces; under bounded quantification over "
        "finite codomains the check passes."
    ),
    "ultra-idempotent": (
        "Because the ultrafilter space of a finite space is a copy of the "
        "space, the multiplication components are homeomorphisms and the "
        "monad tests idempotent, unlike in the general theory where the unit "
        "can fail to be an epimorphism."
    ),
    "patch-density-vacuous": (
        "The unit into the ultrafilter space is surjective on finite "
        "carriers, so its patch-density holds for the trivial reason that "
        "the image is everything."
    ),
    "way-below-is-inclusion": (
        "All open covers in a finite space are finite, so relative "
        "compactness of opens collapses to inclusion."
    ),
}
