(* Crash–recover–verify soak for the durable dynamic pipeline.

   Each trial is one seeded crash point: run a journaled pipeline for a
   random prefix of a fixed op sequence, kill it, damage the on-disk
   state the way a real crash would (torn partial record at the tail,
   truncated tail, a flipped byte corrupting a record CRC, a damaged
   snapshot blob, or a clean kill between ops), then recover and verify:

     - [Durable.recover] never raises;
     - it never replays a corrupt suffix (the recovered op count is a
       valid prefix of the sequence — checked by extension, below);
     - the recovered state passes the full audit;
     - *extension equivalence*: applying the ops the journal did not
       retain on top of the recovered state reproduces the uncrashed
       run's final graph and matched edge set bit-for-bit (the journal
       runs with sync_every = 1, so every acknowledged op is durable).

   A separate leg injects silent matching corruption and checks the
   audit detects it, repairs it, and counts the repair in stats.

   The corruption plan mirrors the seeded Faults style of PR 2: one Rng
   drives every trial, so any failure reproduces from the seed. *)

open Mspar_prelude
open Mspar_dynamic

(* ---------------------------------------------------------------- *)
(* raw file surgery (bench code is outside the MSP009 funnel)        *)
(* ---------------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let append_garbage rng path k =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  for _ = 1 to k do
    output_char oc (Char.chr (Rng.int rng 256))
  done;
  close_out oc

let truncate_file path keep =
  let s = read_file path in
  write_file path (String.sub s 0 (min keep (String.length s)))

let flip_byte rng path pos =
  let s = Bytes.of_string (read_file path) in
  if pos < Bytes.length s then begin
    let b = Char.code (Bytes.get s pos) in
    Bytes.set s pos (Char.chr (b lxor (1 + Rng.int rng 255)));
    write_file path (Bytes.to_string s)
  end

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mspar-crash-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  if Sys.file_exists d then remove_tree d;
  d

(* ---------------------------------------------------------------- *)
(* op sequences and observables                                      *)
(* ---------------------------------------------------------------- *)

type op = Ins of int * int | Del of int * int

(* Mixed churn with a bias to insertion so the graph stays non-trivial;
   deletions target edges that are likely present (drawn from the same
   vertex range), and duplicate inserts / phantom deletes are kept on
   purpose — no-ops must journal and replay like everything else. *)
let make_ops rng ~n ~count =
  Array.init count (fun _ ->
      let u = Rng.int rng n and v = Rng.int rng n in
      let u, v = if u = v then (u, (v + 1) mod n) else (u, v) in
      if Rng.int rng 10 < 7 then Ins (u, v) else Del (u, v))

let apply_op d = function
  | Ins (u, v) -> ignore (Durable.insert d u v)
  | Del (u, v) -> ignore (Durable.delete d u v)

type observed = {
  graph_edges : (int * int) list;
  matched_edges : (int * int) list;
}

let observe d =
  let dm = Durable.matching d in
  {
    graph_edges = Dyn_graph.edges (Dyn_matching.graph dm);
    matched_edges = Mspar_matching.Matching.edges (Dyn_matching.matching dm);
  }

let config ~n ~seed =
  {
    Durable.n;
    delta = 6;
    beta = 4;
    eps = 0.3;
    multiplier = 2.0;
    seed;
  }

let cadence = (Some 25, Some 40) (* snapshot_every, audit_every *)

let run_all ~dir ~n ~seed ops =
  let snapshot_every, audit_every = cadence in
  let d =
    Durable.create ~sync_every:1 ?snapshot_every ?audit_every ~dir
      (config ~n ~seed)
  in
  Array.iter (apply_op d) ops;
  let out = observe d in
  Durable.close d;
  out

(* ---------------------------------------------------------------- *)
(* one crash trial                                                   *)
(* ---------------------------------------------------------------- *)

type verdict = { mode : string; recovered_ops : int }

let newest_snapshot dir =
  Sys.readdir dir
  |> Array.to_list
  |> List.filter (fun f -> String.length f > 5 && String.sub f 0 5 = "snap-")
  |> List.sort (fun a b -> String.compare b a)
  |> function
  | [] -> None
  | f :: _ -> Some (Filename.concat dir f)

let crash_trial rng ~n ~seed ~reference ops =
  let snapshot_every, audit_every = cadence in
  let dir = fresh_dir () in
  let k = 1 + Rng.int rng (Array.length ops) in
  let d =
    Durable.create ~sync_every:1 ?snapshot_every ?audit_every ~dir
      (config ~n ~seed)
  in
  Array.iter (apply_op d) (Array.sub ops 0 k);
  Durable.close d;
  let journal = Filename.concat dir "journal.wal" in
  let size = String.length (read_file journal) in
  (* seeded damage: which way did this crash tear the disk? *)
  let mode =
    match Rng.int rng 5 with
    | 0 ->
        append_garbage rng journal (1 + Rng.int rng 24);
        "torn-partial-record"
    | 1 when size > 12 ->
        truncate_file journal (size - (1 + Rng.int rng (min 10 (size - 10))));
        "truncated-tail"
    | 2 when size > 48 ->
        (* flip a byte in the op region: corrupts one record's CRC and
           invalidates everything after it, but never the header/config *)
        flip_byte rng journal (40 + Rng.int rng (size - 40));
        "corrupted-crc"
    | 3 -> (
        match newest_snapshot dir with
        | Some blob ->
            let bsize = String.length (read_file blob) in
            flip_byte rng blob (Rng.int rng bsize);
            "corrupted-snapshot"
        | None -> "clean-kill")
    | _ -> "clean-kill"
  in
  (match
     Durable.recover ~sync_every:1 ?snapshot_every ?audit_every dir
   with
  | exception e ->
      failwith
        (Printf.sprintf "[%s] recover raised: %s" mode (Printexc.to_string e))
  | Error msg -> failwith (Printf.sprintf "[%s] recover failed: %s" mode msg)
  | Ok d ->
      let c = Durable.op_count d in
      if c > k then
        failwith
          (Printf.sprintf "[%s] recovered %d ops from a %d-op run" mode c k);
      (* the recovered state must already be healthy... *)
      let failures = Durable.audit_now d in
      if failures <> [] then
        failwith
          (Printf.sprintf "[%s] recovered state fails audit: %s" mode
             (String.concat "; " failures));
      (* ...and extending it with the ops the journal did not retain must
         land exactly on the uncrashed run (bit-for-bit replay: same
         graph, same matched edges) *)
      Array.iter (apply_op d) (Array.sub ops c (Array.length ops - c));
      let out = observe d in
      Durable.close d;
      if out.graph_edges <> reference.graph_edges then
        failwith (Printf.sprintf "[%s] graph diverged after recovery" mode);
      if out.matched_edges <> reference.matched_edges then
        failwith
          (Printf.sprintf "[%s] matching diverged: %d vs %d edges" mode
             (List.length out.matched_edges)
             (List.length reference.matched_edges));
      remove_tree dir;
      { mode; recovered_ops = c })

(* ---------------------------------------------------------------- *)
(* silent-corruption / repair leg                                    *)
(* ---------------------------------------------------------------- *)

let repair_trial ~n ~seed ops =
  let dir = fresh_dir () in
  let d = Durable.create ~sync_every:1 ~dir (config ~n ~seed) in
  Array.iter (apply_op d) ops;
  Dyn_matching.inject_corruption (Durable.matching d);
  let failures = Durable.audit_now d in
  if failures = [] then failwith "injected corruption escaped the audit";
  if (Durable.stats d).Durable.audit_failures < 1 then
    failwith "audit failure (and its repair) was not counted in stats";
  let after = Audit.matching (Durable.matching d) in
  if after <> [] then
    failwith
      (Printf.sprintf "repair left the matching unhealthy: %s"
         (String.concat "; " after));
  Durable.close d;
  remove_tree dir

(* ---------------------------------------------------------------- *)
(* entry points                                                      *)
(* ---------------------------------------------------------------- *)

let soak ~trials ~n ~ops_count ~seed =
  let rng = Rng.create seed in
  let ops = make_ops (Rng.create (seed + 1)) ~n ~count:ops_count in
  let ref_dir = fresh_dir () in
  let reference = run_all ~dir:ref_dir ~n ~seed ops in
  remove_tree ref_dir;
  let by_mode = Hashtbl.create 8 in
  for _ = 1 to trials do
    let v = crash_trial rng ~n ~seed ~reference ops in
    Hashtbl.replace by_mode v.mode
      (1 + Option.value ~default:0 (Hashtbl.find_opt by_mode v.mode))
  done;
  repair_trial ~n ~seed ops;
  by_mode

let print_summary ~trials by_mode =
  Printf.printf "crash-soak: %d crash points, all recovered and verified\n"
    trials;
  Hashtbl.fold (fun m c acc -> (m, c) :: acc) by_mode []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (m, c) -> Printf.printf "  %-20s %4d\n" m c);
  Printf.printf "  repair-leg           pass\n%!"

(* The asserted `dune runtest` hook: ≥ 200 seeded crash points on a tiny
   instance, plus the repair leg.  Any verification failure raises and
   fails the build. *)
let smoke () =
  let trials = 210 in
  let by_mode = soak ~trials ~n:24 ~ops_count:120 ~seed:42 in
  print_summary ~trials by_mode

(* The full bench entry: a larger instance and more crash points. *)
let run () =
  let trials = 400 in
  let by_mode = soak ~trials ~n:64 ~ops_count:400 ~seed:7 in
  print_summary ~trials by_mode
