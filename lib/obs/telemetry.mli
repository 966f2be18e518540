(** Request-scoped telemetry for the resident compile service.

    Three layers, all inert unless the serve scheduler installs a
    collector on the executing domain:

    - a {!ctx} minted per client RPC and carried in the protocol frame,
      so every compile/report/sweep-cell request is individually
      attributable;
    - a per-request {e span tree} assembled from the existing
      {!Trace.span} / {!Trace.record} / {!Metrics.incr} call sites
      (those modules notify this one when a collector is {!active}),
      kept in a bounded in-process ring of recently finished requests;
    - a rolling {!Window} of fixed-width time buckets answering "what is
      p99 latency {e right now}" rather than over process lifetime.

    Determinism: this module never writes to the Trace stream or the
    Metrics registry, so with no collector installed — the one-shot CLI,
    or any process under [TRIPS_NO_REQ_TELEMETRY] — every existing
    output is byte-identical.  A request executes start-to-finish on one
    worker domain, so its event order is the sequential order regardless
    of [--jobs]. *)

type value = Int of int | Float of float | Str of string | Bool of bool
(** Field values; {!Trace.value} is an alias of this type, so the two
    are interchangeable at every instrumentation site. *)

val hatch : string
(** The escape-hatch variable name, ["TRIPS_NO_REQ_TELEMETRY"]. *)

val enabled : unit -> bool
(** False when [TRIPS_NO_REQ_TELEMETRY] is set non-empty: {!mint}
    returns [None], {!start} declines, and the global-window helpers
    become no-ops — the escape hatch for byte-identity comparisons. *)

val sorted_bindings : (string, 'a) Hashtbl.t -> (string * 'a) list
(** A table's bindings sorted by key; shared with {!Metrics}. *)

val quantile_of_sorted : float list -> int -> float -> float
(** [quantile_of_sorted sorted n q]: exact nearest-rank [q]-quantile of
    the [n] ascending-sorted samples ([0.0] when empty); shared with
    {!Metrics}. *)

(** {1 Trace context} *)

type ctx = {
  tc_id : string;  (** ["req-<hex>"], unique per minted request *)
  tc_parent : int;  (** parent span id on the client side (0 = root) *)
  tc_deadline_s : float option;
  tc_chaos_seed : int option;
}

val mint : ?deadline_s:float -> ?chaos_seed:int -> unit -> ctx option
(** Mint a fresh request context ([None] under the escape hatch).
    Called by [Client.rpc] for job-carrying requests. *)

(** {1 Rolling window} *)

module Window : sig
  type t
  (** A mutex-guarded ring of fixed-width time buckets.  Ops take an
      optional [?now] (seconds, as from [Unix.gettimeofday]) so tests
      can drive the clock deterministically. *)

  type quantiles = {
    q_count : int;
    q_sum : float;
    q_min : float;
    q_max : float;
    q_p50 : float;  (** exact nearest-rank over the window's samples *)
    q_p90 : float;
    q_p99 : float;
  }

  type snapshot = {
    w_span_s : float;  (** window length covered: buckets × bucket_s *)
    w_counters : (string * int) list;  (** sorted by name *)
    w_gauges : (string * float) list;  (** sorted by name *)
    w_histograms : (string * quantiles) list;  (** sorted by name *)
  }

  val create : ?buckets:int -> ?bucket_s:float -> unit -> t
  (** Default 30 buckets × 1s: a 30-second window. *)

  val incr : t -> ?now:float -> ?by:int -> string -> unit
  val observe : t -> ?now:float -> string -> float -> unit

  val set_gauge : t -> string -> float -> unit
  (** Gauges are last-value-wins and not bucketed (a gauge is a level,
      not a flow — expiring it with a bucket would invent a zero). *)

  val gauge_value : t -> string -> float option

  val merge : into:t -> ?now:float -> t -> unit
  (** Fold [src]'s live buckets into [into], aligning epochs through
      absolute time (bucket widths may differ); [src]'s gauges overwrite
      [into]'s.  Buckets older than [into]'s window are dropped.  Safe
      against concurrent writers on either side. *)

  val snapshot : ?now:float -> t -> snapshot
  (** Aggregate over the buckets still inside the window at [now]:
      summed counters, exact nearest-rank quantiles over the union of
      samples.  An empty window yields empty lists (no zero-filled
      quantiles). *)

  val reset : t -> unit

  val counter_value : snapshot -> string -> int
  (** 0 when absent. *)

  val quantiles : snapshot -> string -> quantiles option
end

val global_window : Window.t
(** The daemon's window (30 × 1s).  The helpers below write to it only
    when {!enabled}; read it with {!win_snapshot}. *)

val win_incr : ?by:int -> string -> unit
val win_observe : string -> float -> unit
val win_gauge : string -> float -> unit
val win_snapshot : unit -> Window.snapshot

(** {1 Per-request collector}

    Lifecycle, owned by the serve scheduler: {!start} when the job is
    dequeued (queue wait now known), {!run} around the worker thunk
    (installs the collector domain-locally so Trace/Metrics notify it),
    {!finish} once the outcome is classified.  The [active option]
    threading keeps every call a no-op when telemetry is off. *)

type span = {
  sp_id : int;  (** creation order; children have larger ids *)
  sp_parent : int;  (** [-1] only for the root "request" span *)
  sp_name : string;
  sp_fields : (string * value) list;
  sp_start_us : float;  (** µs since request admission *)
  mutable sp_dur_us : float;  (** negative while still open *)
}

type note = {
  nt_span : int;  (** enclosing span id *)
  nt_ts_us : float;
  nt_kind : string;  (** e.g. ["opt-pass"], ["merge-attempt"] *)
  nt_fields : (string * value) list;
}

type trace = {
  tr_id : string;
  tr_kind : string;  (** ["compile"] | ["report"] | ["sweep-cell"] *)
  tr_queue_wait_s : float;
  mutable tr_outcome : string;  (** ["ok"], ["timed_out"], ["crashed"], ... *)
  mutable tr_total_s : float;  (** queue wait + execution *)
  mutable tr_spans : span list;  (** creation order; [0] is the root *)
  mutable tr_notes : note list;  (** emission order *)
  mutable tr_counters : (string * int) list;  (** sorted by name *)
}

type active

val start : ctx option -> kind:string -> queue_wait_s:float -> active option
(** Open a collector for a dequeued request; synthesizes the root
    ["request"] span and its ["queue-wait"] / ["execute"] children.
    [None] in, or the escape hatch set, [None] out. *)

val run : active option -> (unit -> 'a) -> 'a
(** Run the worker thunk with the collector installed domain-locally
    (restored on exit, even on exception). *)

val finish : active option -> outcome:string -> unit
(** Close the frame spans, stamp the outcome, push the finished trace
    into the ring, and record the request into the global window
    ([serve.req.<outcome>] counter; [serve.latency_s],
    [serve.queue_wait_s], [serve.execute_s] histograms). *)

val active : unit -> bool
(** Whether a collector is installed on the calling domain — the guard
    Trace and Metrics use before notifying. *)

val span_enter : string -> (string * value) list -> unit
(** Called by [Trace.span] on entry; opens a child of the innermost open
    span. *)

val span_exit : dur_s:float -> unit
(** Called by [Trace.span] on exit (normal or exceptional); closes the
    innermost instrumentation span and records [span.<name>_s] into the
    global window.  Never closes the synthesized frame spans. *)

val note : string -> (string * value) list -> unit
(** Called by [Trace.record]; attaches a point event to the innermost
    open span. *)

val count : ?by:int -> string -> unit
(** Called by [Metrics.incr]; accumulates into the request's private
    counter table (surfaced as [tr_counters]). *)

(** {1 Finished-trace ring} *)

val set_ring_capacity : int -> unit
(** Default 64; oldest traces are evicted first. *)

val find : string -> trace option
(** Look up a finished request by id ([None] once evicted). *)

val recent : unit -> trace list
(** Newest first. *)

val reset : unit -> unit
(** Clear the ring and the global window (tests). *)

(** {1 Rendering and validation} *)

val render : trace -> string
(** Human-readable span tree: one line per span (duration, offset,
    fields), notes nested under their spans, then the request's counter
    deltas. *)

val check : trace -> (unit, string) result
(** Well-formedness: every span closed, parented (parents precede
    children), and within its parent's and the request's bounds (modulo
    µs clock jitter); every note attached to a known span. *)
