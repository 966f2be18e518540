(* The benchmark: one seeded run of one workload.

     main.exe --workload W --seed N --seconds S --trace 0|1 --out DIR

   Workloads:
   - compile-branchy, compile-loopy: sequential one-shot
     [Worker.compile_report] calls with no cache, exactly as
     [chfc compile] makes them, over a seeded pool of generated programs
     (Inputs.compile_jobs).  The run makes laps over the pool, as many
     as take S seconds on a 2-core x86-64 host and at least three, and
     times each program by its fastest lap.
   - serve-mixed: an in-process daemon ([Trips_serve.Server]) with one
     worker domain per core, driven by a closed loop of one client
     thread per core over a seeded stream of every distinct (micro
     kernel, ordering, policy) triple (cold), each followed by one
     repeat of an earlier one (warm).  Cold triples cannot repeat on
     one daemon, so the run measures whole streams, each on a freshly
     booted daemon, as many as take S seconds on a 2-core x86-64 host
     and at least three, and times each triple by its fastest stream.

   With --trace 0 the run prints the end-to-end metrics; with --trace 1
   it runs the traced replay (Ledger) on the same inputs and prints the
   per-layer metrics.  Either way the last line of standard output is
   one JSON object; the exit code is 0 only if every compile was correct
   and every check held. *)

open Perfbench_core
open Trips_workloads
module Worker = Trips_serve.Worker
module Server = Trips_serve.Server
module Client = Trips_serve.Client
module Protocol = Trips_serve.Protocol
module Telemetry = Trips_obs.Telemetry

(* ---- run bookkeeping ------------------------------------------------- *)

type run = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** newest first *)
  mutable metrics : (string * float * string) list;  (** newest first *)
}

let run = { attempted = 0; failed = 0; problems = []; metrics = [] }

let problem fmt =
  Printf.ksprintf
    (fun m ->
      run.problems <- m :: run.problems;
      prerr_endline ("perfbench: " ^ m))
    fmt

let fail_compile fmt =
  run.failed <- run.failed + 1;
  problem fmt

(* [~json:false] prints a figure without making it a result metric: a
   figure that is 0 at every correct run, or too noisy to bound *)
let metric ?(note = "") ?(json = true) name unit_ value =
  if json then run.metrics <- (name, value, unit_) :: run.metrics;
  Printf.printf "metric %-32s %14.6f %-6s%s\n" name value unit_
    (if note = "" then "" else "  " ^ note)

let now = Unix.gettimeofday
let ms s = s *. 1000.0

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* p50 and the tail percentile with its sample count beside it *)
let latency_metrics ?(note = "") ~prefix samples =
  let n = List.length samples in
  let note = if note = "" then "" else ", " ^ note in
  metric (prefix ^ "_p50_ms") "ms"
    (ms (Arith.median samples))
    ~note:(Printf.sprintf "n=%d%s" n note);
  match Arith.tail_percentile n with
  | Some 90.0 ->
    metric (prefix ^ "_p90_ms") "ms"
      (ms (Arith.nearest_rank 90.0 samples))
      ~note:(Printf.sprintf "n=%d, %d beyond%s" n (n - Arith.rank 90.0 n) note)
  | p ->
    (* the run loops keep measuring until p90 has ten samples beyond it *)
    problem "only %d samples: the highest percentile with ten beyond is %s"
      n
      (match p with Some p -> Printf.sprintf "p%g" p | None -> "none")

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
    List.find_map
      (fun line ->
        Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
      (String.split_on_char '\n' status)
  | exception Sys_error _ -> None

(* Peak RSS moves with GC pacing: its spread across seeds (10-14%) is
   too wide to bound, so it is printed but not a result metric. *)
let rss_metric () =
  match peak_rss_mb () with
  | Some mb -> metric ~json:false "peak_rss_mb" "MB" mb
  | None -> print_endline "peak_rss_mb unavailable (no /proc/self/status)"

(* Set-up is repeated between the laps or streams of a run and its
   median reported, so one slow round does not decide the figure and the
   rounds span the run, as the measured figures do.  Each round
   starts from a collected heap, as the first one does, so a round does
   not pay for its predecessor's garbage. *)
let setup_round f =
  Gc.full_major ();
  time f

(* Each lap or stream starts from a compacted heap, so set-up garbage is
   not collected on its clock; without this the warm round trip of
   serve-mixed shifted by up to 15% from run to run. *)
let measured_phase () = Gc.compact ()

(* A run repeats its whole input set in laps (streams on serve-mixed).
   Other tenants of a shared host only ever add time to a request, in
   episodes that last seconds, so a request's time is the fastest of its
   laps: the laps of one run are spread over all of it, and the fastest
   of three or more misses most episodes.  The median over a run of
   single samples followed the host instead (interquartile spread up to
   30% of the median across runs).

   The number of laps is fixed by S and the lap time measured on a
   2-core x86-64 host, not by how fast this run's laps go: the fastest of
   more laps reads lower, so a faster build given more laps would gain
   twice. *)
let min_laps = 3

let laps_for ~seconds ~lap_s =
  max min_laps (int_of_float (Float.round (float_of_int seconds /. lap_s)))

let setup_metric durations =
  metric "setup_s" "s" (Arith.median durations)
    ~note:(Printf.sprintf "median of %d set-ups" (List.length durations))

(* Correctness of one compile: [Ok] (compile_report already checked the
   formed code's checksum against the basic-block baseline) and a report
   that parses and carries the "verified" line. *)
let check_report label = function
  | Error m ->
    fail_compile "%s: compile failed: %s" label m;
    None
  | Ok text -> (
    match Report_text.parse text with
    | Error m ->
      fail_compile "%s: unreadable report: %s" label m;
      None
    | Ok r when not r.Report_text.verified ->
      fail_compile "%s: report lacks the verified line" label;
      None
    | Ok r -> Some r)

let quality_metrics reports =
  match reports with
  | [] -> problem "no correct compile to measure code quality on"
  | _ ->
    let n = Printf.sprintf "n=%d" (List.length reports) in
    metric "cycles_ratio_geomean" "ratio" ~note:n
      (Arith.geomean (List.map Report_text.cycles_ratio reports));
    metric "exec_blocks_mean" "blocks" ~note:n
      (Arith.mean
         (List.map (fun r -> float_of_int r.Report_text.exec_blocks) reports));
    metric "static_instrs_mean" "instrs" ~note:n
      (Arith.mean
         (List.map (fun r -> float_of_int r.Report_text.static_instrs) reports))

let one_shot (j : Inputs.job) =
  Worker.compile_report ~ordering:j.Inputs.ordering ~config:j.Inputs.config
    ~backend:true ~verify:false j.Inputs.workload

(* ---- compile-branchy / compile-loopy --------------------------------- *)

(* The spread of a pool's compile-time percentiles and code-quality
   means from seed to seed shrinks with its size; a lap over the pool
   takes [lap_s] seconds on a 2-core x86-64 host, so a 25-second run
   makes four. *)
let pool_size = function Inputs.Branchy -> 320 | Inputs.Loopy -> 160
let lap_s = function Inputs.Branchy -> 6.0 | Inputs.Loopy -> 6.5

let compile_setup family ~seed =
  setup_round (fun () ->
      let jobs = Array.of_list (Inputs.compile_jobs family ~seed (pool_size family)) in
      (* warm-up: one compile, untimed and uncounted *)
      ignore (one_shot jobs.(0));
      jobs)

(* Every lap compiles every program once; a program's compile time is
   the fastest of its laps.  A one-shot user has no cache, so a repeated
   request is a recompile: hit_p50 is the fastest of a program's later
   laps, the figure a one-shot cache would move.  Every compile after a
   program's first must print its first report. *)
let compile_timed family ~seed ~seconds =
  let pool, setup0 = compile_setup family ~seed in
  let digest = Inputs.digest (Array.to_list pool) in
  let p = Array.length pool in
  let first = Array.make p "" in
  let best = Array.make p infinity and best_repeat = Array.make p infinity in
  let reports = ref [] in
  let lap l =
    measured_phase ();
    let t0 = now () in
    Array.iteri
      (fun i j ->
        let res, dt = time (fun () -> one_shot j) in
        run.attempted <- run.attempted + 1;
        best.(i) <- Float.min best.(i) dt;
        let label = Inputs.label j in
        if l > 0 then begin
          best_repeat.(i) <- Float.min best_repeat.(i) dt;
          match res with
          | Ok (_, text) when text = first.(i) -> ()
          | _ -> fail_compile "%s: repeated compile printed a different report" label
        end
        else
          match res with
          | Error m -> ignore (check_report label (Error m))
          | Ok (_, text) ->
            first.(i) <- text;
            Option.iter (fun r -> reports := r :: !reports) (check_report label (Ok text)))
      pool;
    now () -. t0
  in
  let n_laps = laps_for ~seconds ~lap_s:(lap_s family) in
  (* three set-up rounds in all: before the first lap and a third and two
     thirds of the way through; each rebuilds the pool from the seed *)
  let rec laps l setups lap_times =
    let lap_times = lap l :: lap_times in
    let done_ = l + 1 in
    let setups =
      if done_ = n_laps / 3 || done_ = 2 * n_laps / 3 then begin
        let again, s = compile_setup family ~seed in
        if Inputs.digest (Array.to_list again) <> digest then
          problem "set-up built a different pool from the same seed";
        s :: setups
      end
      else setups
    in
    if done_ = n_laps then (setups, List.rev lap_times)
    else laps done_ setups lap_times
  in
  let setups, lap_times = laps 0 [ setup0 ] [] in
  setup_metric setups;
  let elapsed = List.fold_left ( +. ) 0.0 lap_times in
  Printf.printf "samples laps=%d distinct=%d compiles=%d elapsed_s=%.3f lap_s=%s\n"
    n_laps p (n_laps * p) elapsed
    (String.concat "," (List.map (Printf.sprintf "%.2f") lap_times));
  Printf.printf "plain rate over all laps: %.3f compiles/s\n"
    (float_of_int (n_laps * p) /. elapsed);
  let best = Array.to_list best in
  latency_metrics ~prefix:"compile" best
    ~note:(Printf.sprintf "fastest of %d laps" n_laps);
  metric "throughput_per_s" "1/s"
    (float_of_int p /. List.fold_left ( +. ) 0.0 best)
    ~note:"one compile after another, each at its fastest lap";
  metric "hit_p50_ms" "ms"
    (ms (Arith.median (Array.to_list best_repeat)))
    ~note:
      (Printf.sprintf "n=%d, fastest of %d later laps; no one-shot cache: a repeat recompiles"
         p (n_laps - 1));
  quality_metrics (List.rev !reports);
  rss_metric ();
  digest

(* ---- serve-mixed ------------------------------------------------------ *)

(* After the first [lead] cold requests, each cold one is followed by one
   warm request repeating an earlier cold triple, which gives hit_p50
   about as many samples as compile_p50.  The end-to-end figures do not
   rest on this share: compile percentiles and throughput count cold
   requests only, hit_p50 warm ones only. *)
let warm_per_cold = 1

type served = {
  mutable reply : Protocol.output option;
  mutable latency_s : float;
  mutable target : int;  (** for a warm request: the cold one repeated *)
}

type daemon = {
  server : Server.t;
  socket : string;
  conns : Client.conn array;
}

let spec (j : Inputs.job) =
  {
    Protocol.cs_workload = j.Inputs.workload.Workload.name;
    cs_ordering = j.Inputs.ordering_name;
    cs_policy = j.Inputs.policy_name;
    cs_backend = true;
    cs_verify = false;
    cs_deadline_s = None;
    cs_chaos_seed = None;
  }

let boot ~out ~seed ~round ~clients =
  (* relative and short: Unix socket paths are limited to ~100 bytes *)
  let socket =
    Filename.concat out
      (Printf.sprintf "s%d-%d-%d.sock" (Unix.getpid ()) seed round)
  in
  let server = Server.start ~workers:clients ~quiet:true ~socket () in
  let conns = Array.init clients (fun _ -> Client.connect ~socket) in
  (* warm-up: each client takes every [clients]-th warm-up compile *)
  let warmup = Array.of_list (Inputs.serve_warmup ~seed) in
  Array.mapi
    (fun c conn ->
      Thread.create
        (fun () ->
          Array.iteri
            (fun i j ->
              if i mod clients = c then
                ignore (Client.rpc conn (Protocol.Compile (spec j))))
            warmup)
        ())
    conns
  |> Array.iter Thread.join;
  { server; socket; conns }

let shutdown d =
  Array.iter Client.close d.conns;
  Server.stop d.server;
  Server.wait d.server;
  if Sys.file_exists d.socket then problem "socket %s outlived the daemon" d.socket

let store name (s : Protocol.stats_payload) =
  List.find (fun c -> c.Protocol.sc_name = name) s.Protocol.st_stores

(* Run the whole stream through the daemon: one thread per connection,
   each taking the next request when its previous reply arrived. *)
let serve_loop (stream : Inputs.request array) d =
  let n = Array.length stream in
  let slots =
    Array.init n (fun _ -> { reply = None; latency_s = nan; target = -1 })
  in
  let m = Mutex.create () in
  let next = ref 0 in
  let take () =
    Mutex.protect m (fun () ->
        if !next >= n then None
        else begin
          let i = !next in
          incr next;
          Some i
        end)
  in
  let done_cold i =
    match stream.(i) with
    | Inputs.Cold _ -> Mutex.protect m (fun () -> slots.(i).reply <> None)
    | Inputs.Warm _ -> false
  in
  (* the cold request a warm one repeats: the seeded target if its reply
     is in, otherwise the nearest earlier completed cold one *)
  let resolve i t =
    let rec down k = if k < 0 then None else if done_cold k then Some k else down (k - 1) in
    let rec up k = if k >= i then None else if done_cold k then Some k else up (k + 1) in
    match down t with Some k -> k | None -> Option.get (up (t + 1))
  in
  let client conn =
    let rec loop () =
      match take () with
      | None -> ()
      | Some i ->
        let j, target =
          match stream.(i) with
          | Inputs.Cold j -> (j, -1)
          | Inputs.Warm t -> (
            let k = resolve i t in
            match stream.(k) with
            | Inputs.Cold j -> (j, k)
            | Inputs.Warm _ -> assert false)
        in
        let reply, dt = time (fun () -> Client.rpc conn (Protocol.Compile (spec j))) in
        Mutex.protect m (fun () ->
            slots.(i).latency_s <- dt;
            slots.(i).target <- target;
            slots.(i).reply <- Some reply);
        loop ()
    in
    loop ()
  in
  let t0 = now () in
  let threads = Array.map (fun c -> Thread.create client c) d.conns in
  Array.iter Thread.join threads;
  (slots, now () -. t0)

let served_text label = function
  | Some (Ok text) -> Ok text
  | Some (Error e) -> Error (Fmt.str "%a" Protocol.pp_served_error e)
  | None -> Error (label ^ ": no reply")

(* One measured stream: the daemon it ran on was fresh, so its cold
   requests are the daemon's first requests for those triples. *)
type stream_run = {
  cold : (Inputs.job * served) array;  (** in stream order *)
  warm : served list;
  elapsed : float;
  before : Protocol.stats_payload;
  after : Protocol.stats_payload;
}

(* Correctness of one stream: no cold triple twice, every warm reply
   equal to the cold reply it repeats, and the output store's hits and
   misses equal to the warm and cold counts.  Cold replies are checked
   by [serve_replies]. *)
let serve_checks (stream : Inputs.request array) slots ~elapsed ~before ~after =
  let cold = ref [] and warm = ref [] in
  let seen = Hashtbl.create 512 in
  Array.iteri
    (fun i s ->
      run.attempted <- run.attempted + 1;
      match stream.(i) with
      | Inputs.Cold j ->
        let label = Inputs.label j in
        if Hashtbl.mem seen label then
          fail_compile "%s: cold triple requested twice" label;
        Hashtbl.replace seen label ();
        cold := (j, s) :: !cold
      | Inputs.Warm _ ->
        warm := s :: !warm;
        if s.reply = None || s.reply <> slots.(s.target).reply then
          fail_compile "request %d: warm reply differs from the cold reply of %d"
            i s.target)
    slots;
  let cold = Array.of_list (List.rev !cold) and warm = List.rev !warm in
  let delta f = f (store "serve.output" after) - f (store "serve.output" before) in
  let hits = delta (fun c -> c.Protocol.sc_hits) in
  let misses = delta (fun c -> c.Protocol.sc_misses) in
  if hits <> List.length warm || misses <> Array.length cold then
    problem
      "output store saw %d hits / %d misses for %d warm / %d cold requests" hits
      misses (List.length warm) (Array.length cold);
  { cold; warm; elapsed; before; after }

(* Set-up is generating the stream and booting a daemon (start,
   warm-up); every stream gets a fresh daemon, so every stream has its
   own set-up round.  The run measures [streams] whole streams. *)
let serve_phase ~out ~seed ~streams =
  let clients = Domain.recommended_domain_count () in
  let lead = 2 * clients in
  let rec rounds round setups runs =
    let (stream, d), dt =
      setup_round (fun () ->
          let stream = Inputs.serve_stream ~seed ~warm_per_cold ~lead in
          (stream, boot ~out ~seed ~round ~clients))
    in
    let before = Server.stats d.server in
    Telemetry.reset ();
    measured_phase ();
    let slots, elapsed = serve_loop stream d in
    let after = Server.stats d.server in
    shutdown d;
    let runs = serve_checks stream slots ~elapsed ~before ~after :: runs in
    let setups = dt :: setups in
    if round + 1 < streams then rounds (round + 1) setups runs
    else (List.rev setups, List.rev runs, clients)
  in
  rounds 0 [] []

(* Every cold reply of a later stream must equal the first stream's
   reply for its triple, and a seeded sample of the first stream's
   replies must equal the one-shot compile_report text.  Returns the
   verified reports of the first stream: every triple once. *)
let serve_replies ~seed = function
  | [] -> []
  | first :: later ->
    let by_label = Hashtbl.create 512 in
    Array.iter (fun (j, s) -> Hashtbl.replace by_label (Inputs.label j) s.reply) first.cold;
    List.iter
      (fun r ->
        Array.iter
          (fun (j, s) ->
            if Hashtbl.find_opt by_label (Inputs.label j) <> Some s.reply then
              fail_compile "%s: a later stream's reply differs from the first"
                (Inputs.label j))
          r.cold)
      later;
    let rng = Inputs.Rand.create ((seed * 7919) + 5) in
    let n = Array.length first.cold in
    for _ = 1 to min 8 n do
      let j, s = first.cold.(Inputs.Rand.int rng n) in
      match (one_shot j, s.reply) with
      | Ok (_, text), Some (Ok served) when text = served -> ()
      | _ ->
        fail_compile "%s: served reply differs from one-shot compile_report"
          (Inputs.label j)
    done;
    Array.to_list first.cold
    |> List.filter_map (fun (j, s) ->
           let label = Inputs.label j in
           check_report label (served_text label s.reply))

(* A triple's cold round trip is the fastest of its streams', the warm
   round trip the fastest stream's median, and throughput the fastest
   stream's rate of cold replies. *)
(* a stream takes about 13 seconds with 2 clients on a 2-core x86-64 host *)
let stream_s = 13.0

let serve_timed ~out ~seed ~seconds =
  let streams = laps_for ~seconds ~lap_s:stream_s in
  let setups, runs, clients = serve_phase ~out ~seed ~streams in
  setup_metric setups;
  let reports = serve_replies ~seed runs in
  let best = Hashtbl.create 512 in
  List.iter
    (fun r ->
      Array.iter
        (fun (j, s) ->
          let l = Inputs.label j in
          let b = Option.value ~default:infinity (Hashtbl.find_opt best l) in
          Hashtbl.replace best l (Float.min b s.latency_s))
        r.cold)
    runs;
  let n = List.length runs in
  let cold = List.fold_left (fun acc r -> acc + Array.length r.cold) 0 runs in
  let warm = List.fold_left (fun acc r -> acc + List.length r.warm) 0 runs in
  let elapsed = List.fold_left (fun acc r -> acc +. r.elapsed) 0.0 runs in
  Printf.printf
    "samples streams=%d cold=%d warm=%d clients=%d elapsed_s=%.3f stream_s=%s\n" n
    cold warm clients elapsed
    (String.concat "," (List.map (fun r -> Printf.sprintf "%.2f" r.elapsed) runs));
  Printf.printf "plain rate over all streams: %.3f cold replies/s\n"
    (float_of_int cold /. elapsed);
  let fastest f = List.fold_left (fun acc r -> Float.min acc (f r)) infinity runs in
  let rate r = float_of_int (Array.length r.cold) /. r.elapsed in
  latency_metrics ~prefix:"compile"
    (Hashtbl.fold (fun _ v acc -> v :: acc) best [])
    ~note:(Printf.sprintf "fastest of %d streams" n);
  metric "throughput_per_s" "1/s"
    (List.fold_left (fun acc r -> Float.max acc (rate r)) 0.0 runs)
    ~note:(Printf.sprintf "cold requests only, fastest of %d streams" n);
  metric "hit_p50_ms" "ms"
    (ms (fastest (fun r -> Arith.median (List.map (fun s -> s.latency_s) r.warm))))
    ~note:(Printf.sprintf "n=%d per stream, fastest of %d streams" (warm / n) n);
  quality_metrics reports;
  rss_metric ();
  (* every stream sends the same seeded requests *)
  Inputs.digest (Array.to_list (Array.map fst (List.hd runs).cold))

(* ---- the traced run --------------------------------------------------- *)

(* Replay [jobs] one by one, each next to an untraced compile_report of
   the same job (alternating which goes first), and check the replay
   reproduced it. *)
let traced jobs ~out ~tag =
  let led = Ledger.create () and k = Ledger.counts () in
  let untraced = ref 0.0 and traced = ref 0.0 and repairs = ref 0 in
  let deltas = Hashtbl.create 8 in
  List.iteri
    (fun i (j : Inputs.job) ->
      run.attempted <- run.attempted + 1;
      let plain () =
        let res, dt = time (fun () -> one_shot j) in
        untraced := !untraced +. dt;
        res
      in
      let replay () =
        let before = Ledger.counters () in
        let o, dt =
          time (fun () ->
              match Ledger.replay led k ~compile:i j with
              | o -> Ok o
              | exception e -> Error (Printexc.to_string e))
        in
        traced := !traced +. dt;
        List.iter2
          (fun (name, b) (_, a) ->
            Hashtbl.replace deltas name
              (a - b + Option.value ~default:0 (Hashtbl.find_opt deltas name)))
          before (Ledger.counters ());
        o
      in
      let res, o =
        if i mod 2 = 0 then
          let r = plain () in
          (r, replay ())
        else
          let o = replay () in
          (plain (), o)
      in
      let label = Inputs.label j in
      match (res, o) with
      | Error m, _ -> fail_compile "%s: compile failed: %s" label m
      | _, Error m -> fail_compile "%s: traced replay failed: %s" label m
      | Ok (c, text), Ok o -> (
        repairs := !repairs + c.Trips_harness.Pipeline.repair_splits;
        let checksum =
          (Trips_harness.Pipeline.run_functional c).Trips_sim.Func_sim.checksum
        in
        match Report_text.parse text with
        | Error m -> fail_compile "%s: unreadable report: %s" label m
        | Ok r ->
          if
            o.Ledger.checksum <> checksum
            || o.Ledger.cycles <> r.Report_text.cycles
            || o.Ledger.bb_cycles <> r.Report_text.bb_cycles
            || o.Ledger.formed.Chf.Formation.merges
               <> c.Trips_harness.Pipeline.stats.Chf.Formation.merges
          then fail_compile "%s: traced replay did different work" label))
    jobs;
  let nodes = Ledger.tree led in
  print_string (Fmt.str "%a" Ledger.pp_tree nodes);
  let path = Filename.concat out (Printf.sprintf "trace-%s.json" tag) in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Ledger.to_json led nodes));
  Printf.printf "trace written to %s (%d spans)\n" path led.Ledger.next;
  (nodes, k, deltas, !untraced, !traced, !repairs)

let layer_metrics (nodes, (k : Ledger.counts), deltas, untraced, traced, repairs)
    ~compiles =
  let per_compile x = x /. float_of_int compiles in
  let self = Ledger.span_self nodes in
  let d name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt deltas name)) in
  let note = Printf.sprintf "per compile, n=%d" compiles in
  let profile_s = self "profile.run" in
  let func_s = self "sim.func" and cycle_s = self "sim.cycle" in
  metric "lang.lower_s" "s" ~note (per_compile (self "lang.lower"));
  metric "profile.run_s" "s" ~note (per_compile profile_s);
  metric "profile.blocks_per_s" "1/s"
    (Arith.ratio (float_of_int k.Ledger.profile_blocks) profile_s);
  metric "opt.optimize_s" "s" ~note
    (per_compile (self "opt.optimize" +. self "opt.final_optimize"));
  metric "core.formation_s" "s" ~note (per_compile (self "core.formation"));
  metric "core.unroll_peel_s" "s" ~note (per_compile (self "core.unroll_peel"));
  let s = k.Ledger.stats in
  let count name v = metric name "count" (float_of_int v) in
  count "core.attempts" s.Chf.Formation.attempts;
  count "core.merges" s.Chf.Formation.merges;
  metric "core.merge_accept_ratio" "ratio"
    (Arith.ratio (float_of_int s.Chf.Formation.merges)
       (float_of_int s.Chf.Formation.attempts));
  count "core.size_rejections" s.Chf.Formation.size_rejections;
  count "core.tail_dups" s.Chf.Formation.tail_dups;
  count "core.unrolls" s.Chf.Formation.unrolls;
  count "core.peels" s.Chf.Formation.peels;
  metric "core.prefilter_hits" "count" (d "formation.prefilter.hits");
  metric "core.liveness_incremental" "count" (d "formation.liveness.incremental");
  metric "core.loops_reuse" "count" (d "formation.loops.reuse");
  metric "regalloc.backend_s" "s" ~note (per_compile (self "regalloc.backend"));
  count "regalloc.splits" k.Ledger.splits;
  count "regalloc.fanout_movs" k.Ledger.fanout_movs;
  count "regalloc.rounds" k.Ledger.rounds;
  metric "sim.func_s" "s" ~note (per_compile func_s);
  metric "sim.func_instrs_per_s" "1/s"
    (Arith.ratio (float_of_int k.Ledger.func_instrs) func_s);
  metric "sim.cycle_s" "s" ~note (per_compile cycle_s);
  metric "sim.cycle_blocks_per_s" "1/s"
    (Arith.ratio (float_of_int k.Ledger.cycle_blocks) cycle_s);
  metric "sim.cycle_memo_hit_ratio" "ratio"
    (Arith.ratio (d "sim.cycle.memo.hits")
       (d "sim.cycle.memo.hits" +. d "sim.cycle.memo.misses"));
  let coverage = Ledger.coverage nodes in
  metric "harness.coverage_ratio" "ratio" coverage;
  count "harness.repair_splits" repairs;
  metric "obs.trace_overhead_ratio" "ratio" (Arith.ratio traced untraced);
  coverage

(* The workloads were chosen to stress different layers; the traced run
   checks they still do.  The gate is the contrast (the stressed pair of
   layers outweighs the other pair), not a majority: a change that makes
   the stressed layers faster must not fail the benchmark meant to show
   it. *)
let design_check family nodes =
  let wall = Ledger.root_total nodes in
  let share layers =
    Arith.ratio
      (List.fold_left (fun acc l -> acc +. Ledger.layer_self nodes l) 0.0 layers)
      wall
  in
  let formation = share [ "opt"; "core" ] and simulation = share [ "profile"; "sim" ] in
  let stressed, other =
    match family with
    | Inputs.Branchy -> (formation, simulation)
    | Inputs.Loopy -> (simulation, formation)
  in
  Printf.printf
    "design formation+opt=%.3f profile+sim=%.3f of traced compile time (%s)\n"
    formation simulation
    (if stressed > 0.5 then "the stressed layers are the majority"
     else "the stressed layers are no longer the majority");
  if stressed <= other then
    problem
      "design check failed on %s: formation+opt %.3f, profile+sim %.3f; the \
       workload no longer stresses the layers it was chosen for"
      (Inputs.family_name family) formation simulation

let serve_layer_metrics (before : Protocol.stats_payload) (after : Protocol.stats_payload)
    ~elapsed ~workers =
  let w = after.Protocol.st_window in
  let q name f =
    match Telemetry.Window.quantiles w name with
    | Some x -> ms (f x)
    | None -> 0.0
  in
  metric "serve.queue_wait_p50_ms" "ms" (q "serve.queue_wait_s" (fun x -> x.Telemetry.Window.q_p50));
  metric "serve.queue_wait_p90_ms" "ms" (q "serve.queue_wait_s" (fun x -> x.Telemetry.Window.q_p90));
  metric "serve.execute_p50_ms" "ms" (q "serve.execute_s" (fun x -> x.Telemetry.Window.q_p50));
  metric "serve.execute_p90_ms" "ms" (q "serve.execute_s" (fun x -> x.Telemetry.Window.q_p90));
  let ratio name =
    let h = (store name after).Protocol.sc_hits - (store name before).Protocol.sc_hits in
    let m = (store name after).Protocol.sc_misses - (store name before).Protocol.sc_misses in
    Arith.ratio (float_of_int h) (float_of_int (h + m))
  in
  metric "serve.output_store_hit_ratio" "ratio" (ratio "serve.output");
  metric "serve.prefix_store_hit_ratio" "ratio" (ratio "serve.prefix");
  let busy =
    match Telemetry.Window.quantiles w "serve.execute_s" with
    | Some x -> x.Telemetry.Window.q_sum
    | None -> 0.0
  in
  metric "serve.pool_utilization" "ratio"
    (Arith.ratio busy (elapsed *. float_of_int workers));
  let c f = float_of_int (f after - f before) in
  metric "serve.shed" "count" (c (fun s -> s.Protocol.st_shed));
  metric "serve.timed_out" "count" (c (fun s -> s.Protocol.st_timed_out));
  metric "serve.crashed" "count" (c (fun s -> s.Protocol.st_crashed))

let no_serve_metrics () =
  List.iter
    (fun (name, u) -> metric name u 0.0 ~note:"no daemon on this workload")
    [
      ("serve.queue_wait_p50_ms", "ms"); ("serve.queue_wait_p90_ms", "ms");
      ("serve.execute_p50_ms", "ms"); ("serve.execute_p90_ms", "ms");
      ("serve.output_store_hit_ratio", "ratio");
      ("serve.prefix_store_hit_ratio", "ratio");
      ("serve.pool_utilization", "ratio"); ("serve.shed", "count");
      ("serve.timed_out", "count"); ("serve.crashed", "count");
    ]

(* how many jobs the traced run replays *)
let trace_jobs = function Inputs.Branchy -> 96 | Inputs.Loopy -> 32
let trace_serve_jobs = 48

let compile_traced family ~seed ~out ~tag =
  let jobs = Inputs.compile_jobs family ~seed (trace_jobs family) in
  let r = traced jobs ~out ~tag in
  let (nodes, _, _, _, _, _) = r in
  let coverage = layer_metrics r ~compiles:(List.length jobs) in
  if coverage < 0.95 then
    problem "layer coverage %.3f is below the 0.95 gate" coverage;
  design_check family nodes;
  no_serve_metrics ();
  Inputs.digest jobs

(* One stream, then the ledger replays the first of its cold triples. *)
let serve_traced ~out ~seed ~tag =
  let _, runs, workers = serve_phase ~out ~seed ~streams:1 in
  ignore (serve_replies ~seed runs);
  let r = List.hd runs in
  let jobs =
    List.filteri (fun i _ -> i < trace_serve_jobs) (Array.to_list (Array.map fst r.cold))
  in
  let t = traced jobs ~out ~tag in
  ignore (layer_metrics t ~compiles:(List.length jobs));
  serve_layer_metrics r.before r.after ~elapsed:r.elapsed ~workers;
  Inputs.digest jobs

(* ---- entry point ------------------------------------------------------ *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_json ~correct =
  let metrics =
    List.rev_map
      (fun (name, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) u)
      run.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct run.attempted run.failed (String.concat ", " metrics)

let usage = "main.exe --workload W --seed N --seconds S --trace 0|1 --out DIR"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let out = ref "." in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "compile-branchy | compile-loopy | serve-mixed");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: traced per-layer run");
      ("--out", Arg.Set_string out, "directory for the socket, result and trace files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  (match Array.to_list (Unix.environment ()) |> List.find_opt (fun kv ->
       String.length kv > 6 && String.sub kv 0 6 = "TRIPS_")
   with
  | Some kv -> problem "escape hatch %s is set; the benchmark runs the defaults" kv
  | None -> ());
  let seed = !seed and seconds = !seconds and out = !out in
  let tag = Printf.sprintf "%s-seed%d" !workload seed in
  let family = function "compile-branchy" -> Some Inputs.Branchy | "compile-loopy" -> Some Inputs.Loopy | _ -> None in
  Printf.printf "host nproc=%d ocaml=%s workload=%s seed=%d seconds=%d trace=%d\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version !workload seed seconds !trace;
  let digest =
    match (!workload, family !workload, !trace) with
    | _, Some f, 0 -> compile_timed f ~seed ~seconds
    | _, Some f, _ -> compile_traced f ~seed ~out ~tag
    | "serve-mixed", None, 0 -> serve_timed ~out ~seed ~seconds
    | "serve-mixed", None, _ -> serve_traced ~out ~seed ~tag
    | w, _, _ ->
      prerr_endline ("perfbench: unknown workload " ^ w ^ "\n" ^ usage);
      exit 2
  in
  Printf.printf "inputs digest=%s attempted=%d failed=%d\n" digest
    run.attempted run.failed;
  (* 0 whenever the run is correct, so the JSON carries it as
     attempted/failed rather than as a metric *)
  metric ~json:false "failed_ratio" "ratio"
    (Arith.ratio (float_of_int run.failed) (float_of_int run.attempted));
  let correct = run.failed = 0 && run.problems = [] in
  let json = result_json ~correct in
  Out_channel.with_open_text
    (Filename.concat out (Printf.sprintf "result-%s-trace%d.json" tag !trace))
    (fun oc ->
      Printf.fprintf oc
        "{\"host\": {\"nproc\": %d, \"ocaml\": %S}, \"workload\": %S, \"seed\": %d, \"seconds\": %d, \"trace\": %d, \"inputs_digest\": %S, \"result\": %s}\n"
        (Domain.recommended_domain_count ()) Sys.ocaml_version !workload seed
        seconds !trace digest json);
  print_endline json;
  exit (if correct then 0 else 1)
