(* Parse the [chfc compile] report text.

   [Trips_serve.Worker.compile_report] renders the same bytes for the
   one-shot CLI and for a served reply, so the code-quality metrics are
   read from that text and the two paths are measured alike. *)

type t = {
  workload : string;
  ordering : string;
  merges : int * int * int * int;  (** m/t/u/p *)
  static_blocks : int;
  static_instrs : int;
  exec_blocks : int;  (** dynamic blocks of the formed code *)
  exec_instrs : int;
  cycles : int;
  bb_cycles : int;  (** the basic-block baseline's cycles *)
  verified : bool;
}

(* "key   : value" lines; the key is padded to a fixed column *)
let fields text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match String.index_opt line ':' with
         | None -> None
         | Some i ->
           let key = String.trim (String.sub line 0 i) in
           let v = String.sub line (i + 1) (String.length line - i - 1) in
           Some (key, String.trim v))

let parse text =
  let fs = fields text in
  let get key =
    match List.assoc_opt key fs with
    | Some v -> v
    | None -> failwith (Printf.sprintf "report: no %S line" key)
  in
  let scan key fmt k =
    let v = get key in
    try Scanf.sscanf v fmt k
    with Scanf.Scan_failure _ | Failure _ | End_of_file ->
      failwith (Printf.sprintf "report: bad %S line: %S" key v)
  in
  match
    let workload = scan "workload" "%s" Fun.id in
    let merges = scan "merges m/t/u/p" "%d/%d/%d/%d" (fun m t u p -> (m, t, u, p)) in
    let static_blocks, static_instrs =
      scan "static" "%d blocks, %d instructions" (fun b i -> (b, i))
    in
    (* the return value may print empty ("ret=, ...") *)
    let exec_blocks, exec_instrs =
      scan "functional" "ret=%_[^,], %d blocks, %d instructions executed"
        (fun b i -> (b, i))
    in
    let cycles, bb_cycles =
      scan "cycles" "%d (basic blocks: %d," (fun c b -> (c, b))
    in
    {
      workload;
      ordering = get "ordering";
      merges;
      static_blocks;
      static_instrs;
      exec_blocks;
      exec_instrs;
      cycles;
      bb_cycles;
      verified = List.mem_assoc "verified" fs;
    }
  with
  | r -> Ok r
  | exception Failure m -> Error m

let cycles_ratio r = float_of_int r.cycles /. float_of_int r.bb_cycles
