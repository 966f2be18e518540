(* Seeded inputs for the three workloads.

   Everything here is a pure function of the seed, drawn from [Rand]
   below (fixed integer arithmetic, not [Random]), so one seed gives
   byte-identical programs, configurations and request orders on any
   build.  [digest] summarizes a set of inputs for the result record. *)

open Trips_workloads
module Worker = Trips_serve.Worker

(* A splitmix-style generator on native ints.  [Trips_workloads.Rng]'s
   LCG draws its low bits with a short period ([int r 2] alternates), so
   choices among a few configurations come from here instead. *)
module Rand = struct
  type t = { mutable s : int }

  let create seed = { s = seed * 0x9E3779B97F4A7C1 }

  let next t =
    t.s <- t.s + 0x2545F4914F6CDD1;
    let z = t.s in
    let z = (z lxor (z lsr 29)) * 0x3C79AC492BA7B65 in
    let z = (z lxor (z lsr 32)) * 0x1CE4E5B9BF58476 in
    (z lxor (z lsr 29)) land max_int

  let int t bound = next t mod bound
end

let orderings = [ "upio"; "iupo"; "iup-o"; "iupo-merged" ]
let policies = [ "bf"; "df"; "vliw" ]

type job = {
  workload : Workload.t;
  ordering_name : string;
  policy_name : string;
  ordering : Chf.Phases.ordering;
  config : Chf.Policy.config;
}

let ok = function Ok x -> x | Error (`Msg m) -> failwith m

let job workload ordering_name policy_name =
  {
    workload;
    ordering_name;
    policy_name;
    ordering = ok (Worker.ordering_of_name ordering_name);
    config = ok (Worker.policy_of_name policy_name);
  }

let label j =
  Printf.sprintf "%s/%s/%s" j.workload.Workload.name j.ordering_name
    j.policy_name

(* ---- one-shot compile inputs: two Spec_like recipe families --------- *)

type family = Branchy | Loopy

let family_name = function Branchy -> "branchy" | Loopy -> "loopy"

(* uniform in [lo, hi] with 0.01 resolution *)
let frac rng lo hi = lo +. (hi -. lo) *. float_of_int (Rand.int rng 101) /. 100.0
let between rng lo hi = lo + Rand.int rng (hi - lo + 1)

(* The two families differ in control-flow texture and in how much
   dynamic work a compile's profile run and simulators do. *)
type shape = {
  size_band : int * int;
      (** accepted lowered size (instructions): formation cost grows
          superlinearly with it, so the band fixes the input size *)
  dyn_instrs : int;  (** target dynamic instructions of one run *)
  max_outer : int;
  block_band : int * int;
      (** accepted dynamic blocks of the scaled basic-block run: the
          formed code's executed blocks and size follow it, so the band
          keeps a pool's code-quality means steady from seed to seed *)
  run_scaled : bool;
      (** measure the scaled run's blocks by running it; otherwise
          estimate them from one outer iteration *)
}

(* Branch-dense integer code: conditionals in at least half of the
   segments, inner trip counts 1-4.  Formation and the optimizer do the
   work; the profile run and the simulators are cheap. *)
let branchy_recipe rng name : Spec_like.recipe =
  {
    Spec_like.name;
    seed = Rand.int rng 1_000_000;
    outer_iters = 1;
    segments = between rng 2 3;
    branch_density = frac rng 0.65 0.9;
    branch_bias = frac rng 0.5 0.75;
    while_fraction = frac rng 0.2 0.5;
    trip_choices = [ 1; 2; 3; 4 ];
    nest_prob = frac rng 0.3 0.5;
    stmts_per_block = between rng 2 3;
  }

(* Regular loop nests: few conditionals, inner trip counts 16-64.  The
   profile run, the functional simulator and the cycle model do the
   work; formation has little to merge. *)
let loopy_recipe rng name : Spec_like.recipe =
  {
    Spec_like.name;
    seed = Rand.int rng 1_000_000;
    outer_iters = 1;
    segments = between rng 2 3;
    branch_density = frac rng 0.0 0.2;
    branch_bias = frac rng 0.75 0.9;
    while_fraction = frac rng 0.0 0.1;
    trip_choices = [ 16; 32; 64 ];
    nest_prob = frac rng 0.6 0.9;
    stmts_per_block = between rng 4 7;
  }

(* A branchy program's branches take other ways on later outer
   iterations, so one iteration says little about the scaled run, which
   is cheap to run.  A loop nest repeats its work, so one iteration
   predicts the scaled run, which is long. *)
let shape = function
  | Branchy ->
    {
      size_band = (80, 150);
      dyn_instrs = 3_000;
      max_outer = 40;
      block_band = (200, 600);
      run_scaled = true;
    }
  | Loopy ->
    {
      size_band = (60, 160);
      dyn_instrs = 25_000;
      max_outer = 200;
      block_band = (500, 1_250);
      run_scaled = false;
    }

let family_tag = function Branchy -> 1 | Loopy -> 2

let in_band (lo, hi) x = lo <= x && x <= hi

(* the basic-block run of the program, [None] if it needs more than
   [fuel] instructions *)
let bb_run ?fuel (l : Trips_harness.Stage.lowered) w =
  match
    Trips_sim.Func_sim.run ?fuel ~registers:l.Trips_harness.Stage.low_registers
      ~memory:(Workload.memory w) l.Trips_harness.Stage.low_cfg
  with
  | r -> Some r
  | exception Trips_sim.Func_sim.Out_of_fuel _ -> None

(* Draw recipes until one lowers to a size inside the family's band and
   its one outer iteration fits the dynamic-work target, then scale its
   outer loop to that target and keep it if the scaled run's blocks fall
   inside the family's block band. *)
let rec draw family rng name =
  let recipe =
    match family with
    | Branchy -> branchy_recipe rng name
    | Loopy -> loopy_recipe rng name
  in
  let sh = shape family in
  (* the recipe was generated with one outer iteration *)
  let w = Spec_like.generate recipe in
  let l = Trips_harness.Stage.lower w in
  let size = Trips_ir.Cfg.total_instrs l.Trips_harness.Stage.low_cfg in
  match if in_band sh.size_band size then bb_run ~fuel:sh.dyn_instrs l w else None with
  | None -> draw family rng name
  | Some r ->
    let per_iteration = max 1 r.Trips_sim.Func_sim.instrs_executed in
    let outer = max 1 (min sh.max_outer (sh.dyn_instrs / per_iteration)) in
    let w = Spec_like.generate { recipe with Spec_like.outer_iters = outer } in
    let blocks =
      if sh.run_scaled then
        Option.fold ~none:0
          ~some:(fun s -> s.Trips_sim.Func_sim.blocks_executed)
          (bb_run (Trips_harness.Stage.lower w) w)
      else r.Trips_sim.Func_sim.blocks_executed * outer
    in
    if in_band sh.block_band blocks then w else draw family rng name

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rand.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [n] programs of the family.  The twelve (ordering, policy) pairs are
   dealt round-robin in a seeded order, so every seed compiles the same
   mix of configurations and only the programs differ. *)
let compile_jobs family ~seed n =
  let rng = Rand.create ((seed * 7919) + family_tag family) in
  let pairs =
    Array.of_list
      (List.concat_map (fun o -> List.map (fun p -> (o, p)) policies) orderings)
  in
  shuffle rng pairs;
  List.init n (fun k ->
      let name = Printf.sprintf "%s%03d" (family_name family) k in
      let ordering, policy = pairs.(k mod Array.length pairs) in
      job (draw family rng name) ordering policy)

(* ---- serve-mixed: a shuffled stream of distinct triples ------------- *)

type request = Cold of job | Warm of int  (** index of an earlier request *)

let triples () =
  List.concat_map
    (fun w ->
      List.concat_map
        (fun o -> List.map (fun p -> job w o p) policies)
        orderings)
    (Micro.all @ Micro.store_dense)

(* Every distinct (micro kernel, ordering, policy) triple once -- the 24
   kernels of Tables 1 and 2 and the store-dense stress kernels -- in a
   seeded order, each cold request after the first [lead] followed by
   [warm_per_cold] warm ones.  A warm request names an earlier request
   whose triple it repeats; the first [lead] requests are cold, so there
   is always one to repeat. *)
let serve_stream ~seed ~warm_per_cold ~lead =
  let rng = Rand.create ((seed * 7919) + 3) in
  let cold = Array.of_list (triples ()) in
  shuffle rng cold;
  let out = ref [] and n = ref 0 in
  Array.iteri
    (fun c j ->
      out := Cold j :: !out;
      incr n;
      if c >= lead then
        for _ = 1 to warm_per_cold do
          out := Warm (Rand.int rng !n) :: !out;
          incr n
        done)
    cold;
  Array.of_list (List.rev !out)

(* Warm-up for the daemon: the basic-block compile of every kernel, in
   a seeded order.  It fills the lower+profile prefix store, as a
   daemon's first requests would, and the measured stream never asks for
   the basic-block ordering, so no measured request's output is stored
   yet. *)
let serve_warmup ~seed =
  let rng = Rand.create ((seed * 7919) + 4) in
  let ws = Array.of_list (Micro.all @ Micro.store_dense) in
  shuffle rng ws;
  Array.to_list (Array.map (fun w -> job w "bb" "bf") ws)

(* ---- input identity -------------------------------------------------- *)

let digest jobs =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.map
             (fun j ->
               Trips_harness.Stage.content_key j.workload ^ ":" ^ label j)
             jobs)))
