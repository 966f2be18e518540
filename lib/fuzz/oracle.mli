(** The differential oracle: everything we can check about one case.

    For a CFG case: the input must verify cleanly and terminate (else
    the generator, not the pipeline, is at fault); then a phase ordering
    runs under {!Trips_verify.Diff_check} (structural invariants plus
    functional re-simulation after {e every} phase), the back end runs
    and the result is re-verified, the final checksum must match the
    input's, and formation with all fast-path escape hatches engaged
    must produce the identical CFG and statistics (the fast-path
    equivalence property of DESIGN.md §12).  For a mini-language case the full
    {!Trips_harness.Pipeline} runs with per-phase verification against
    the basic-block baseline.

    Budget limits are enforced through the phases only when the input
    itself fits them, so a case built {e near} the caps (giant blocks)
    reports only regressions. *)

type verdict =
  | Pass
  | Fail of { stage : string; bucket : string; reason : string }

val fast_path_hatches : string list
(** The [TRIPS_NO_*] escape hatches of formation's three output-invariant
    fast paths (incremental liveness, loop reuse, indexed pool). *)

val with_hatches : string -> (unit -> 'a) -> 'a
(** [with_hatches v f] sets every {!fast_path_hatches} variable to [v]
    ([""] keeps the fast paths on, ["1"] engages every hatch), runs [f],
    and clears them again — the two sides of the equivalence oracle. *)

val ordering_for : seed:int -> Chf.Phases.ordering
(** The phase ordering a case of this seed is checked under (cases cycle
    through the four formed orderings deterministically). *)

val config_for : seed:int -> Chf.Policy.config
(** The formation policy for this seed: mostly the EDGE default, with a
    depth-first slice to exercise pathological tail duplication. *)

val check : ?fuel:int -> Gen.case -> verdict
(** Run the full oracle stack on one case.  [fuel] (default 2M) bounds
    every functional simulation.  Never raises for a pipeline defect —
    those become [Fail] — but a {!Trips_obs.Watchdog.Timed_out} from an
    enclosing per-case scope propagates where it cannot be attributed
    to a specific oracle step. *)
