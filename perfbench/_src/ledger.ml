(* The per-layer ledger: a traced replay of one compile.

   [replay] makes the calls [Trips_serve.Worker.compile_report] makes,
   in its order, through each layer's public entry points:

     basic-block compile: Stage.content_key, Stage.lower, Stage.profile,
       Stage.instantiate, the Phases.plan steps, Backend.run
     baseline run:        Func_sim.run, Cycle_sim.run
     formed compile:      the same chain under the requested ordering
     formed run:          Func_sim.run (checksum check), Cycle_sim.run

   Each call runs under one benchmark-side span whose parent is the
   compile's root span; every span of one compile carries that compile's
   id.  Spans live in memory until [to_json] writes them out.  No span
   is opened inside [lib/]: the layer boundaries are the function calls
   themselves. *)

open Trips_harness
open Trips_workloads
module Backend = Trips_regalloc.Backend
module Func_sim = Trips_sim.Func_sim
module Cycle_sim = Trips_sim.Cycle_sim
module Metrics = Trips_obs.Metrics

type span = {
  id : int;
  parent : int;  (** [-1] for a compile's root span *)
  compile : int;  (** shared by every span of one compile *)
  name : string;  (** "<layer>.<call>", or "compile" for the root *)
  start_s : float;
  mutable stop_s : float;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next : int;
  mutable open_ : span list;  (** innermost first *)
}

let create () = { spans = []; next = 0; open_ = [] }

let with_span t ~compile name f =
  let parent = match t.open_ with s :: _ -> s.id | [] -> -1 in
  let s =
    { id = t.next; parent; compile; name; start_s = Unix.gettimeofday ();
      stop_s = nan }
  in
  t.next <- t.next + 1;
  t.spans <- s :: t.spans;
  t.open_ <- s :: t.open_;
  Fun.protect f ~finally:(fun () ->
      s.stop_s <- Unix.gettimeofday ();
      t.open_ <- List.tl t.open_)

let duration s = s.stop_s -. s.start_s

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* ---- the replay ------------------------------------------------------ *)

(* Work counts the layer metrics divide by, summed over replays. *)
type counts = {
  mutable profile_blocks : int;
  mutable func_instrs : int;
  mutable cycle_blocks : int;
  mutable splits : int;
  mutable fanout_movs : int;
  mutable rounds : int;
  stats : Chf.Formation.stats;  (** the formed compiles' m/t/u/p *)
}

let counts () =
  {
    profile_blocks = 0;
    func_instrs = 0;
    cycle_blocks = 0;
    splits = 0;
    fanout_movs = 0;
    rounds = 0;
    stats = Chf.Formation.empty_stats ();
  }

type outcome = {
  checksum : int;  (** the formed code's functional checksum *)
  cycles : int;
  bb_cycles : int;
  formed : Chf.Formation.stats;
}

let step_span = function
  | "optimize" -> "opt.optimize"
  | "final-optimize" -> "opt.final_optimize"
  | "formation" -> "core.formation"
  | "unroll+peel" -> "core.unroll_peel"
  | s -> "core." ^ s

(* One [Pipeline.compile] without a cache, followed by nothing: returns
   the formed CFG and its post-allocation parameter registers. *)
let build t ~compile k ~config ordering (w : Workload.t) =
  let span name f = with_span t ~compile name f in
  let key = span "harness.content_key" (fun () -> Stage.content_key w) in
  let lowered = span "lang.lower" (fun () -> Stage.lower w) in
  let profiled = span "profile.run" (fun () -> Stage.profile w lowered) in
  k.profile_blocks <-
    k.profile_blocks + profiled.Stage.prof_result.Func_sim.blocks_executed;
  let prefix =
    { Stage.pre_workload = w; pre_key = key; pre_master = lowered;
      pre_profiled = profiled }
  in
  let l = span "harness.instantiate" (fun () -> Stage.instantiate prefix) in
  let cfg = l.Stage.low_cfg in
  let stats, steps =
    Chf.Phases.plan ~config ordering cfg profiled.Stage.prof_profile
  in
  List.iter
    (fun s -> span (step_span s.Chf.Phases.step_name) s.Chf.Phases.step_run)
    steps;
  match span "regalloc.backend" (fun () -> Backend.run cfg) with
  | r ->
    k.splits <- k.splits + r.Backend.splits;
    k.fanout_movs <- k.fanout_movs + r.Backend.fanout_movs;
    k.rounds <- k.rounds + r.Backend.rounds;
    let registers =
      List.map
        (fun (reg, v) ->
          (Trips_ir.IntMap.find_or ~default:reg reg r.Backend.mapping, v))
        l.Stage.low_registers
    in
    (cfg, registers, stats)
  | exception _ ->
    (* the degradation path (split and retry, or no back end) lives in
       Pipeline.compile; replay it whole *)
    let c =
      span "harness.repair" (fun () ->
          Pipeline.compile ~config ~backend:true ordering w)
    in
    (c.Pipeline.cfg, c.Pipeline.registers, c.Pipeline.stats)

let func t ~compile k (w : Workload.t) (cfg, registers, _) =
  with_span t ~compile "sim.func" (fun () ->
      let r = Func_sim.run ~registers ~memory:(Workload.memory w) cfg in
      k.func_instrs <- k.func_instrs + r.Func_sim.instrs_executed;
      r)

let cycle t ~compile k (w : Workload.t) (cfg, registers, _) =
  with_span t ~compile "sim.cycle" (fun () ->
      let r = Cycle_sim.run ~registers ~memory:(Workload.memory w) cfg in
      k.cycle_blocks <- k.cycle_blocks + r.Cycle_sim.blocks;
      r)

let add_stats ~(into : Chf.Formation.stats) (s : Chf.Formation.stats) =
  let open Chf.Formation in
  into.merges <- into.merges + s.merges;
  into.tail_dups <- into.tail_dups + s.tail_dups;
  into.unrolls <- into.unrolls + s.unrolls;
  into.peels <- into.peels + s.peels;
  into.attempts <- into.attempts + s.attempts;
  into.size_rejections <- into.size_rejections + s.size_rejections

let replay t k ~compile (j : Inputs.job) =
  let w = j.Inputs.workload and config = j.Inputs.config in
  with_span t ~compile "compile" (fun () ->
      let bb = build t ~compile k ~config Chf.Phases.Basic_blocks w in
      let baseline = func t ~compile k w bb in
      let bb_cycles = cycle t ~compile k w bb in
      let c = build t ~compile k ~config j.Inputs.ordering w in
      let r = func t ~compile k w c in
      if r.Func_sim.checksum <> baseline.Func_sim.checksum then
        failwith (Printf.sprintf "replay of %s miscompiled" (Inputs.label j));
      let cycles = cycle t ~compile k w c in
      let _, _, formed = c in
      add_stats ~into:k.stats formed;
      {
        checksum = r.Func_sim.checksum;
        cycles = cycles.Cycle_sim.cycles;
        bb_cycles = bb_cycles.Cycle_sim.cycles;
        formed;
      })

(* ---- the layer tree -------------------------------------------------- *)

type node = {
  path : string;  (** "compile" or "compile/<span name>" *)
  mutable calls : int;
  mutable total_s : float;
  mutable self_s : float;
}

(* Aggregate spans by path.  A span's self time is its duration minus
   its children's durations (children never overlap: one domain). *)
let tree t =
  let spans = List.rev t.spans in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (duration s
          +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    spans;
  let rec path s =
    if s.parent < 0 then s.name
    else path (Hashtbl.find by_id s.parent) ^ "/" ^ s.name
  in
  let nodes = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun s ->
      let p = path s in
      let n =
        match Hashtbl.find_opt nodes p with
        | Some n -> n
        | None ->
          let n = { path = p; calls = 0; total_s = 0.0; self_s = 0.0 } in
          Hashtbl.replace nodes p n;
          order := n :: !order;
          n
      in
      let d = duration s in
      n.calls <- n.calls + 1;
      n.total_s <- n.total_s +. d;
      n.self_s <-
        n.self_s +. d
        -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id))
    spans;
  List.sort (fun a b -> compare a.path b.path) !order

let root_total nodes =
  List.fold_left
    (fun acc n -> if n.path = "compile" then acc +. n.total_s else acc)
    0.0 nodes

(* self time of every node under the root whose span belongs to [layer] *)
let layer_self nodes layer =
  List.fold_left
    (fun acc n ->
      match String.rindex_opt n.path '/' with
      | Some i
        when layer_of (String.sub n.path (i + 1) (String.length n.path - i - 1))
             = layer ->
        acc +. n.self_s
      | _ -> acc)
    0.0 nodes

let span_self nodes name =
  List.fold_left
    (fun acc n -> if n.path = "compile/" ^ name then acc +. n.self_s else acc)
    0.0 nodes

(* the share of traced compile wall time that layer spans account for *)
let coverage nodes =
  let covered =
    List.fold_left
      (fun acc n -> if n.path = "compile" then acc else acc +. n.self_s)
      0.0 nodes
  in
  Arith.ratio covered (root_total nodes)

let pp_tree fmt nodes =
  let wall = root_total nodes in
  Fmt.pf fmt "%-32s %7s %10s %10s %7s@." "layer tree" "calls" "total_s"
    "self_s" "self%";
  List.iter
    (fun n ->
      Fmt.pf fmt "%-32s %7d %10.4f %10.4f %6.1f%%@." n.path n.calls n.total_s
        n.self_s
        (100.0 *. Arith.ratio n.self_s wall))
    nodes

(* ---- the trace artifact ---------------------------------------------- *)

let json_string s = Printf.sprintf "%S" s

let to_json t nodes =
  let b = Buffer.create 65536 in
  let t0 =
    List.fold_left (fun acc s -> Float.min acc s.start_s) infinity t.spans
  in
  Buffer.add_string b "{\"spans\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"id\":%d,\"parent\":%d,\"compile\":%d,\"name\":%s,\"start_us\":%.1f,\"dur_us\":%.1f}"
           s.id s.parent s.compile (json_string s.name)
           ((s.start_s -. t0) *. 1e6)
           (duration s *. 1e6)))
    (List.rev t.spans);
  Buffer.add_string b "],\"tree\":[";
  List.iteri
    (fun i n ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"path\":%s,\"calls\":%d,\"total_s\":%.6f,\"self_s\":%.6f}"
           (json_string n.path) n.calls n.total_s n.self_s))
    nodes;
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* Metrics counters the replay moves, read as deltas around it. *)
let counter_names =
  [
    "formation.prefilter.hits";
    "formation.liveness.incremental";
    "formation.loops.reuse";
    "sim.cycle.memo.hits";
    "sim.cycle.memo.misses";
  ]

let counters () =
  let s = Metrics.snapshot () in
  List.map (fun n -> (n, Metrics.counter_value s n)) counter_names
