(* Tests for the benchmark's own arithmetic, its report parser, its
   input generator and its layer tree.  Run with

     python3 perfbench/run.py --self-test *)

open Perfbench_core
module Pipeline = Trips_harness.Pipeline

let floats = Alcotest.(list (float 1e-12))
let check_float msg = Alcotest.(check (float 1e-9)) msg

(* ---- arithmetic ------------------------------------------------------ *)

let nearest_rank () =
  let xs = [ 7.0; 1.0; 10.0; 3.0; 5.0; 2.0; 9.0; 4.0; 8.0; 6.0 ] in
  check_float "p50 of 1..10" 5.0 (Arith.nearest_rank 50.0 xs);
  check_float "p90 of 1..10" 9.0 (Arith.nearest_rank 90.0 xs);
  check_float "p91 rounds the rank up" 10.0 (Arith.nearest_rank 91.0 xs);
  check_float "p100 is the maximum" 10.0 (Arith.nearest_rank 100.0 xs);
  check_float "p0 is the minimum" 1.0 (Arith.nearest_rank 0.0 xs);
  check_float "one sample" 3.5 (Arith.nearest_rank 90.0 [ 3.5 ]);
  check_float "median of an odd count" 2.0 (Arith.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check int) "rank of p90 among 100" 90 (Arith.rank 90.0 100);
  Alcotest.check_raises "no samples"
    (Invalid_argument "Arith.nearest_rank: no samples") (fun () ->
      ignore (Arith.nearest_rank 50.0 []))

let tail_rule () =
  let tail = Alcotest.(check (option (float 0.0))) in
  tail "100 samples reach p90" (Some 90.0) (Arith.tail_percentile 100);
  tail "p90 is the top of the ladder" (Some 90.0) (Arith.tail_percentile 5000);
  tail "99 samples leave 9 beyond p90" (Some 75.0) (Arith.tail_percentile 99);
  tail "40 samples reach p75" (Some 75.0) (Arith.tail_percentile 40);
  tail "39 samples fall back to p50" (Some 50.0) (Arith.tail_percentile 39);
  tail "20 samples reach p50" (Some 50.0) (Arith.tail_percentile 20);
  tail "19 samples reach nothing" None (Arith.tail_percentile 19);
  tail "a custom margin" (Some 90.0) (Arith.tail_percentile ~beyond:1 10)

let means () =
  check_float "geomean of 1 and 4" 2.0 (Arith.geomean [ 1.0; 4.0 ]);
  check_float "geomean of 2, 8 and 4" 4.0 (Arith.geomean [ 2.0; 8.0; 4.0 ]);
  check_float "geomean of one" 0.75 (Arith.geomean [ 0.75 ]);
  check_float "mean" 2.5 (Arith.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "ratio by zero" 0.0 (Arith.ratio 3.0 0.0);
  Alcotest.check_raises "geomean rejects zero"
    (Invalid_argument "Arith.geomean: non-positive sample") (fun () ->
      ignore (Arith.geomean [ 1.0; 0.0 ]))

(* ---- the report parser, on real compile_report output --------------- *)

let compile name ordering policy =
  let w = Option.get (Trips_workloads.Micro.by_name name) in
  let j = Inputs.job w ordering policy in
  match
    Trips_serve.Worker.compile_report ~ordering:j.Inputs.ordering
      ~config:j.Inputs.config ~backend:true ~verify:false w
  with
  | Ok (c, text) -> (c, text)
  | Error m -> Alcotest.fail m

let parser_real () =
  let c, text = compile "bzip2_3" "iupo-merged" "df" in
  match Report_text.parse text with
  | Error m -> Alcotest.fail m
  | Ok r ->
    let f = Pipeline.run_functional c and cy = Pipeline.run_cycles c in
    let bb =
      Pipeline.run_cycles
        (Pipeline.compile ~config:c.Pipeline.config Chf.Phases.Basic_blocks
           c.Pipeline.workload)
    in
    let s = c.Pipeline.stats in
    Alcotest.(check string) "workload" "bzip2_3" r.Report_text.workload;
    Alcotest.(check string) "ordering" "(IUPO)" r.Report_text.ordering;
    Alcotest.(check (list int)) "m/t/u/p"
      Chf.Formation.[ s.merges; s.tail_dups; s.unrolls; s.peels ]
      (let m, t, u, p = r.Report_text.merges in
       [ m; t; u; p ]);
    Alcotest.(check int) "static blocks" c.Pipeline.static_blocks
      r.Report_text.static_blocks;
    Alcotest.(check int) "static instructions" c.Pipeline.static_instrs
      r.Report_text.static_instrs;
    Alcotest.(check int) "executed blocks" f.Trips_sim.Func_sim.blocks_executed
      r.Report_text.exec_blocks;
    Alcotest.(check int) "executed instructions"
      f.Trips_sim.Func_sim.instrs_executed r.Report_text.exec_instrs;
    Alcotest.(check int) "cycles" cy.Trips_sim.Cycle_sim.cycles
      r.Report_text.cycles;
    Alcotest.(check int) "basic-block cycles" bb.Trips_sim.Cycle_sim.cycles
      r.Report_text.bb_cycles;
    Alcotest.(check bool) "verified" true r.Report_text.verified;
    check_float "cycles ratio"
      (float_of_int cy.Trips_sim.Cycle_sim.cycles
      /. float_of_int bb.Trips_sim.Cycle_sim.cycles)
      (Report_text.cycles_ratio r)

let parser_edges () =
  let _, text = compile "vadd" "upio" "bf" in
  let lines = String.split_on_char '\n' text in
  let edit f = String.concat "\n" (List.map f lines) in
  let no_ret =
    edit (fun l ->
        if String.starts_with ~prefix:"functional" l then
          let i = String.index l '=' and j = String.index l ',' in
          String.sub l 0 (i + 1) ^ String.sub l j (String.length l - j)
        else l)
  in
  (match Report_text.parse no_ret with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("an empty return value: " ^ m));
  let unverified =
    edit (fun l -> if String.starts_with ~prefix:"verified" l then "" else l)
  in
  (match Report_text.parse unverified with
  | Ok r -> Alcotest.(check bool) "no verified line" false r.Report_text.verified
  | Error m -> Alcotest.fail m);
  let truncated =
    edit (fun l -> if String.starts_with ~prefix:"cycles" l then "" else l)
  in
  match Report_text.parse truncated with
  | Ok _ -> Alcotest.fail "a report without a cycles line parsed"
  | Error _ -> ()

(* ---- inputs ---------------------------------------------------------- *)

let seeded () =
  List.iter
    (fun family ->
      let d seed = Inputs.digest (Inputs.compile_jobs family ~seed 12) in
      Alcotest.(check string) "same seed, same inputs" (d 3) (d 3);
      Alcotest.(check bool) "another seed, other inputs" true (d 3 <> d 4);
      let prefix = Inputs.compile_jobs family ~seed:3 5 in
      Alcotest.(check string) "a smaller pool is a prefix"
        (Inputs.digest prefix)
        (Inputs.digest (List.filteri (fun i _ -> i < 5) (Inputs.compile_jobs family ~seed:3 12))))
    [ Inputs.Branchy; Inputs.Loopy ]

(* Every drawn program lowers to a size inside its family's band and its
   basic-block run executes a number of blocks inside the block band (a
   loop nest's blocks are estimated from one outer iteration, so they
   may stray by a few percent). *)
let bands () =
  List.iter
    (fun family ->
      let sh = Inputs.shape family in
      let lo, hi = sh.Inputs.block_band in
      let slack = if sh.Inputs.run_scaled then 0 else (hi - lo) / 20 in
      List.iter
        (fun (j : Inputs.job) ->
          let w = j.Inputs.workload in
          let l = Trips_harness.Stage.lower w in
          let size = Trips_ir.Cfg.total_instrs l.Trips_harness.Stage.low_cfg in
          Alcotest.(check bool) "lowered size in band" true
            (Inputs.in_band sh.Inputs.size_band size);
          let r = Option.get (Inputs.bb_run l w) in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d blocks in band" (Inputs.label j)
               r.Trips_sim.Func_sim.blocks_executed)
            true
            (Inputs.in_band (lo - slack, hi + slack) r.Trips_sim.Func_sim.blocks_executed))
        (Inputs.compile_jobs family ~seed:5 24))
    [ Inputs.Branchy; Inputs.Loopy ]

let stream () =
  let s = Inputs.serve_stream ~seed:9 ~warm_per_cold:3 ~lead:4 in
  let cold = Hashtbl.create 512 and warm = ref 0 in
  Array.iteri
    (fun i r ->
      match r with
      | Inputs.Cold j ->
        let l = Inputs.label j in
        Alcotest.(check bool) ("cold once: " ^ l) false (Hashtbl.mem cold l);
        Hashtbl.replace cold l ()
      | Inputs.Warm t ->
        incr warm;
        Alcotest.(check bool) "warm follows the lead" true (i >= 4);
        Alcotest.(check bool) "warm repeats an earlier request" true (t < i))
    s;
  Alcotest.(check int) "every triple once" (List.length (Inputs.triples ()))
    (Hashtbl.length cold);
  Alcotest.(check int) "three warm per cold after the lead"
    (3 * (Hashtbl.length cold - 4)) !warm;
  let same = Inputs.serve_stream ~seed:9 ~warm_per_cold:3 ~lead:4 in
  Alcotest.(check bool) "same seed, same stream" true
    (Array.map (function Inputs.Cold j -> Inputs.label j | Inputs.Warm t -> string_of_int t) s
    = Array.map (function Inputs.Cold j -> Inputs.label j | Inputs.Warm t -> string_of_int t) same)

(* ---- the layer tree -------------------------------------------------- *)

let tree () =
  let t = Ledger.create () in
  let span id parent name start_s stop_s =
    { Ledger.id; parent; compile = 0; name; start_s; stop_s }
  in
  (* a 10 s compile: lower 1 s, formation 6 s, 3 s outside any layer *)
  t.Ledger.spans <-
    [
      span 2 0 "core.formation" 2.0 8.0;
      span 1 0 "lang.lower" 0.0 1.0;
      span 0 (-1) "compile" 0.0 10.0;
    ];
  let nodes = Ledger.tree t in
  Alcotest.(check (list string)) "paths"
    [ "compile"; "compile/core.formation"; "compile/lang.lower" ]
    (List.map (fun n -> n.Ledger.path) nodes);
  Alcotest.check floats "self times" [ 3.0; 6.0; 1.0 ]
    (List.map (fun n -> n.Ledger.self_s) nodes);
  Alcotest.check floats "total times" [ 10.0; 6.0; 1.0 ]
    (List.map (fun n -> n.Ledger.total_s) nodes);
  check_float "coverage" 0.7 (Ledger.coverage nodes);
  check_float "layer self time" 6.0 (Ledger.layer_self nodes "core")

let () =
  Alcotest.run "perfbench"
    [
      ( "arith",
        [
          Alcotest.test_case "nearest rank" `Quick nearest_rank;
          Alcotest.test_case "tail percentile rule" `Quick tail_rule;
          Alcotest.test_case "means" `Quick means;
        ] );
      ( "report",
        [
          Alcotest.test_case "parses real compile_report output" `Quick parser_real;
          Alcotest.test_case "edge cases" `Quick parser_edges;
        ] );
      ( "inputs",
        [
          Alcotest.test_case "seeded compile pools" `Quick seeded;
          Alcotest.test_case "programs inside their bands" `Quick bands;
          Alcotest.test_case "serve stream" `Quick stream;
        ] );
      ("ledger", [ Alcotest.test_case "self and total time" `Quick tree ]);
    ]
