(** On-demand invariant verification for the dynamic pipeline.

    Each function returns one human-readable message per violated
    invariant ([[]] = healthy) and never raises on corrupt state — the
    point is to {e report} damage so a caller (the {!Durable} layer, the
    crash soak, the CLI) can decide between failing loudly and invoking
    a repair path.  Checks cost O(n + m), so they are meant to run
    every [k] updates, not every update; DESIGN.md §Durability works out
    what that does to the Theorem 3.5 amortised bound.

    None of the checks consumes randomness, so auditing a healthy run
    does not perturb replay determinism. *)

val matching : Dyn_matching.t -> string list
(** The matcher's dynamic graph (adjacency/index coherence, symmetry,
    active set, 2m arc count), a materialised-CSR audit of it
    ({!Mspar_graph.Graph.audit}: canonical sorted blocks, degree sums,
    max-degree cache) with a dynamic-vs-CSR edge-count cross-check, and
    the matching invariants (mate involution, matched pairs are current
    edges, size counter). *)
