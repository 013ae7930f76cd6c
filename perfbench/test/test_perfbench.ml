(* Tests for the benchmark's own helpers: percentile selection, the
   gadget union's closed form, the stationary streams, and replay/daemon
   digest agreement. *)

open Perfbench
open Mspar_graph
open Mspar_matching
open Mspar_server

(* ---- percentiles ---- *)

let test_p99_needs_1000 () =
  Alcotest.(check int) "samples needed for p99" 1000 (Pct.samples_needed ~permille:990);
  Alcotest.(check int) "beyond p99 at n=1000" 10 (Pct.beyond ~n:1000 ~permille:990);
  Alcotest.(check int) "beyond p99 at n=999" 9 (Pct.beyond ~n:999 ~permille:990);
  Alcotest.(check int) "beyond p50 at n=21" 10 (Pct.beyond ~n:21 ~permille:500)

let test_p99_selection () =
  let xs n = Array.init n (fun i -> float_of_int (n - 1 - i)) in
  let p = Pct.of_samples (xs 999) in
  Alcotest.(check int) "count" 999 p.Pct.n;
  Alcotest.(check bool) "no p99 below 1000 samples" true (Option.is_none p.Pct.p99);
  let p = Pct.of_samples (xs 1000) in
  Alcotest.(check (option (float 0.))) "p99 is the 990th smallest" (Some 989.) p.Pct.p99;
  Alcotest.(check (float 0.)) "p50 nearest rank" 499. p.Pct.p50

let test_median () =
  Alcotest.(check (float 0.)) "odd" 2. (Pct.median [| 3.; 1.; 2. |]);
  Alcotest.(check (float 0.)) "even, nearest rank" 2. (Pct.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.(check (float 0.)) "single" 7. (Pct.median [| 7. |])

(* ---- gadget union ---- *)

let test_gadget_closed_form () =
  let spec = { Gadgets.gadgets = 4; half = 7 } in
  List.iter
    (fun seed ->
      let g = Gadgets.build ~seed spec in
      Alcotest.(check int) "n" (Gadgets.n spec) (Graph.n g);
      Alcotest.(check int) "m" (Gadgets.m spec) (Graph.m g);
      Alcotest.(check int) "closed-form MCM = blossom" (Gadgets.mcm spec)
        (Matching.size (Blossom.solve g)))
    [ 1; 2; 3 ]

let test_gadget_seeded () =
  let spec = { Gadgets.gadgets = 3; half = 5 } in
  let a = Gadgets.build ~seed:9 spec and b = Gadgets.build ~seed:9 spec in
  Alcotest.(check bool) "same seed, same graph" true (Graph.equal a b)

(* ---- stationary streams ---- *)

(* replay a stream against an independent edge set: no delete of an
   absent edge, no insert of a present one, Query_edge expectations
   match, and the edge count never leaves {preload - 1, preload} *)
let check_stream ~preload =
  let set = Hashtbl.create 256 in
  let key u v = if u < v then (u, v) else (v, u) in
  Array.iter
    (fun (it : Stationary.item) ->
      match it.req with
      | Wire.Insert { u; v; _ } ->
          Alcotest.(check bool) "insert of an absent edge" false (Hashtbl.mem set (key u v));
          Hashtbl.replace set (key u v) ()
      | _ -> Alcotest.fail "preload must be inserts only")
    preload;
  let p = Hashtbl.length set in
  let updates = ref 0 in
  fun (items : Stationary.item array) ->
    Array.iter
      (fun (it : Stationary.item) ->
        (match it.req with
        | Wire.Insert { u; v; _ } ->
            Alcotest.(check bool) "insert of an absent edge" false (Hashtbl.mem set (key u v));
            Hashtbl.replace set (key u v) ();
            incr updates
        | Wire.Delete { u; v; _ } ->
            Alcotest.(check bool) "delete of a present edge" true (Hashtbl.mem set (key u v));
            Hashtbl.remove set (key u v);
            incr updates
        | Wire.Query_edge (u, v) -> (
            match it.expect with
            | Stationary.Answer b ->
                Alcotest.(check bool) "query expectation" (Hashtbl.mem set (key u v)) b
            | _ -> Alcotest.fail "Query_edge without an expected answer")
        | Wire.Query_matched _ | Wire.Query_sparsifier _ -> ()
        | _ -> Alcotest.fail "unexpected request");
        let c = Hashtbl.length set in
        Alcotest.(check bool) "edge count stays at its preload size" true
          (c = p || (c = p - 1 && !updates mod 2 = 1)))
      items;
    Hashtbl.length set

let test_write_stream_stationary () =
  let part = Stationary.create ~seed:5 ~client:1 ~base:64 ~span:64 in
  let pre = Stationary.preload part ~edges:300 in
  let run = check_stream ~preload:pre in
  let final = run (Stationary.write_stream part ~updates:2000) in
  Alcotest.(check int) "final size" 300 final;
  Alcotest.(check int) "model agrees" 300 (Stationary.edge_count part)

let test_mixed_stream_stationary () =
  let part = Stationary.create ~seed:6 ~client:2 ~base:0 ~span:64 in
  let pre = Stationary.preload part ~edges:300 in
  let items = Stationary.mixed_stream part ~ops:4000 ~update_permille:100 in
  let final = check_stream ~preload:pre items in
  Alcotest.(check bool) "size stays stationary" true (abs (final - 300) <= 1);
  let updates =
    Array.fold_left
      (fun a (it : Stationary.item) ->
        match it.req with Wire.Insert _ | Wire.Delete _ -> a + 1 | _ -> a)
      0 items
  in
  Alcotest.(check bool) "about 10% updates" true (updates > 300 && updates < 500);
  let vertex_ok v = v >= 0 && v < 64 in
  Array.iter
    (fun (it : Stationary.item) ->
      match it.req with
      | Wire.Query_edge (u, v) | Wire.Query_sparsifier (u, v) ->
          Alcotest.(check bool) "endpoints inside the partition, distinct" true
            (vertex_ok u && vertex_ok v && u <> v)
      | Wire.Query_matched v -> Alcotest.(check bool) "inside" true (vertex_ok v)
      | _ -> ())
    items

let test_stream_deterministic () =
  let gen () =
    let part = Stationary.create ~seed:11 ~client:1 ~base:0 ~span:32 in
    ignore (Stationary.preload part ~edges:50);
    Stationary.mixed_stream part ~ops:500 ~update_permille:100
    |> Array.map (fun (it : Stationary.item) -> it.req)
  in
  Alcotest.(check bool) "same seed, same stream" true (gen () = gen ())

(* ---- replay vs daemon ---- *)

let test_replay_matches_daemon () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let span = 64 and parts = 2 in
  let cfg = Serve_daemon.config ~n:(span * parts) ~seed:3 in
  let models =
    Array.init parts (fun i -> Stationary.create ~seed:4 ~client:(i + 1) ~base:(i * span) ~span)
  in
  let preload = Array.map (fun p -> Stationary.preload p ~edges:100) models in
  let timed =
    Array.mapi
      (fun i p ->
        if i = 0 then Stationary.write_stream p ~updates:300
        else Stationary.mixed_stream p ~ops:400 ~update_permille:100)
      models
  in
  let dir = Filename.concat (Sys.getcwd ()) "replay-test" in
  let rm_rf d =
    if Sys.file_exists d then begin
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
      Unix.rmdir d
    end
  in
  rm_rf (dir ^ "-daemon");
  rm_rf (dir ^ "-replay");
  let d =
    Serve_daemon.spawn ~dir:(dir ^ "-daemon") ~socket:"replay-test.sock" ~n:(span * parts)
      ~seed:3
  in
  let digest =
    Fun.protect ~finally:Serve_daemon.kill_all (fun () ->
        let conns = Array.init parts (fun _ -> Loadgen.connect d.Serve_daemon.addr) in
        Array.iteri (fun i c -> ignore (Loadgen.call c (Wire.Hello (i + 1)))) conns;
        let run items =
          let ss = Array.mapi (fun i c -> Loadgen.stream c (Loadgen.encode items.(i))) conns in
          ignore (Loadgen.run ~window:4 (Array.to_list ss));
          Array.iter
            (fun (s : Loadgen.stream) ->
              Alcotest.(check int) "no failed replies" 0 (s.failed + s.mismatched))
            ss
        in
        run preload;
        run timed;
        let digest =
          match Loadgen.call conns.(0) Wire.Checksum with
          | Wire.Digest x -> x
          | _ -> Alcotest.fail "checksum reply"
        in
        Array.iter Loadgen.close conns;
        Alcotest.(check bool) "daemon drains" true (Serve_daemon.stop d = Unix.WEXITED 0);
        digest)
  in
  let r = Replay.create ~dir:(dir ^ "-replay") cfg in
  let bodies items = Array.map (fun (it : Stationary.item) -> Loadgen.body_of it.req) items in
  Replay.feed r ~window:4 (Array.map bodies preload);
  Replay.start_trace r (Trace.create ());
  Replay.feed r ~window:4 (Array.map bodies timed);
  let replayed = Replay.graph_checksum r in
  Replay.close r;
  let model_graph =
    Graph.of_edge_array ~n:(span * parts)
      (Array.concat (Array.to_list (Array.map Stationary.edges models)))
  in
  Alcotest.(check int64) "replay digest = daemon digest" digest.Wire.graph replayed;
  Alcotest.(check int64) "daemon digest = model" (Graph.checksum model_graph) digest.Wire.graph;
  rm_rf (dir ^ "-daemon");
  rm_rf (dir ^ "-replay")

let () =
  Serve_daemon.main ();
  Alcotest.run "perfbench"
    [
      ( "percentiles",
        [
          Alcotest.test_case "p99 needs 1000 samples" `Quick test_p99_needs_1000;
          Alcotest.test_case "p99 selection and counts" `Quick test_p99_selection;
          Alcotest.test_case "median nearest rank" `Quick test_median;
        ] );
      ( "gadgets",
        [
          Alcotest.test_case "closed-form MCM equals blossom" `Quick test_gadget_closed_form;
          Alcotest.test_case "seeded layout" `Quick test_gadget_seeded;
        ] );
      ( "stationary",
        [
          Alcotest.test_case "write stream keeps edge count" `Quick test_write_stream_stationary;
          Alcotest.test_case "mixed stream keeps edge count" `Quick test_mixed_stream_stationary;
          Alcotest.test_case "same seed same stream" `Quick test_stream_deterministic;
        ] );
      ( "replay",
        [ Alcotest.test_case "replay digest matches daemon" `Quick test_replay_matches_daemon ] );
    ]
