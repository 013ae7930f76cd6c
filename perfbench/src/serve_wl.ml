(* The [serve-write] and [serve-mixed] workloads: a serve daemon
   driven by one closed-loop generator process, [parts] connections of
   [window] requests in flight each, every connection owning a disjoint
   [span]-vertex partition.  Set-up starts the daemon, connects, and
   preloads [preload_edges] edges per partition; the timed stream keeps
   each partition's edge count constant.  serve-write sends only
   updates; serve-mixed sends 10 % updates and 90 % point queries. *)

open Mspar_prelude
open Mspar_graph
open Mspar_matching
open Mspar_dynamic
open Mspar_lca
open Mspar_server

type kind = Write | Mixed

let parts = 2
let span = 1024
let preload_edges = 3000
(* 8 in flight per connection: at 16, ~42 % of serve-write updates
   waited on a matcher rebuild, and the latency median sat on the edge
   between the fast mode and the rebuild-stall mode *)
let window = 8
let setup_reps = 3
let update_permille = 100

(* work per run: timed ops per second of --seconds, the throughput the
   2-vCPU host the benchmark was sized on sustains *)
let nominal_ops_per_s = function Write -> 3500. | Mixed -> 7500.

let ops_per_part kind ~seconds =
  Int.max 1000
    (int_of_float (Float.round (seconds *. nominal_ops_per_s kind /. float_of_int parts)))

let name = function Write -> "serve-write" | Mixed -> "serve-mixed"
let daemon_seed ~seed = Rng.bits62 (Rng.derive ~seed 0)
let stream_seed ~seed = Rng.bits62 (Rng.derive ~seed 1)

(* the generated requests: a pure function of the seed, generated and
   encoded once per run, before and outside the set-up timer *)
type inputs = {
  models : Stationary.part array;  (* each partition after its timed stream *)
  preload : Stationary.item array array;
  timed : Stationary.item array array;
  preload_frames : Loadgen.encoded array;
  timed_frames : Loadgen.encoded array;
}

let generate kind ~seed ~ops =
  let models =
    Array.init parts (fun i ->
        Stationary.create ~seed:(stream_seed ~seed) ~client:(i + 1) ~base:(i * span) ~span)
  in
  let preload = Array.map (fun p -> Stationary.preload p ~edges:preload_edges) models in
  let timed =
    Array.map
      (fun p ->
        match kind with
        | Write -> Stationary.write_stream p ~updates:ops
        | Mixed -> Stationary.mixed_stream p ~ops ~update_permille)
      models
  in
  {
    models;
    preload;
    timed;
    preload_frames = Array.map Loadgen.encode preload;
    timed_frames = Array.map Loadgen.encode timed;
  }

type setup = { daemon : Serve_daemon.t; conns : Loadgen.conn array }

let fresh_dir path =
  let rec rm p =
    if Sys.file_exists p then
      if Sys.is_directory p then begin
        Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
        Unix.rmdir p
      end
      else Sys.remove p
  in
  rm path;
  path

let expect_ok what = function
  | Wire.Ok -> ()
  | _ -> failwith (what ^ ": unexpected response")

(* the timed set-up: start the daemon, connect, preload *)
let setup_once kind (inp : inputs) ~seed ~dir ~rep =
  let tag = Printf.sprintf "%s-%d-%d" (name kind) (Unix.getpid ()) rep in
  let daemon =
    Serve_daemon.spawn
      ~dir:(fresh_dir (Filename.concat dir tag))
      ~socket:(Filename.concat dir (tag ^ ".sock"))
      ~n:(parts * span) ~seed:(daemon_seed ~seed)
  in
  let conns = Array.init parts (fun _ -> Loadgen.connect daemon.Serve_daemon.addr) in
  Array.iteri (fun i c -> expect_ok "hello" (Loadgen.call c (Wire.Hello (i + 1)))) conns;
  let pre = Array.mapi (fun i c -> Loadgen.stream c inp.preload_frames.(i)) conns in
  ignore (Loadgen.run ~window (Array.to_list pre));
  Array.iter
    (fun (s : Loadgen.stream) ->
      if s.failed + s.mismatched > 0 then failwith "preload: update not acknowledged")
    pre;
  { daemon; conns }

let teardown s =
  Array.iter Loadgen.close s.conns;
  let status = Serve_daemon.stop s.daemon in
  ignore (fresh_dir s.daemon.Serve_daemon.dir);
  status

let wal_size s = (Unix.stat (Filename.concat s.daemon.Serve_daemon.dir "journal.wal")).Unix.st_size

let final_graph (inp : inputs) =
  Graph.of_edge_array ~n:(parts * span)
    (Array.concat (Array.to_list (Array.map Stationary.edges inp.models)))

(* what the traced replay of the timed streams measured *)
type replayed = {
  trace : Trace.t;
  cpu_s : float;  (* replay process CPU over the timed streams *)
  updates : int;
  oracle_queries : int;
  oracle_probes : int;
  rebuilds : int;
  rebuild_ns : int;
  memo_hits : int;
  memo_misses : int;
  memo_evicted : int;  (* oracle entries invalidated *)
  wal_bytes : int;
  checksum : int64;  (* final graph *)
}

let cache_sum f (s : Oracle.stats) = f s.Oracle.mark_cache + f s.Oracle.edge_cache + f s.Oracle.mm_cache

(* per-layer split: the preload replayed untraced, then the timed
   streams traced *)
let replay (inp : inputs) ~dir ~seed =
  let rdir = fresh_dir (Filename.concat dir (Printf.sprintf "replay-%d" (Unix.getpid ()))) in
  let r =
    Replay.create ~dir:rdir (Serve_daemon.config ~n:(parts * span) ~seed:(daemon_seed ~seed))
  in
  let bodies items = Array.map (fun (it : Stationary.item) -> Loadgen.body_of it.req) items in
  Replay.feed r ~window (Array.map bodies inp.preload);
  let timed = Array.map bodies inp.timed in
  let dm = Durable.matching r.Replay.durable in
  let st0 = Dyn_matching.stats dm and os0 = Oracle.stats r.Replay.oracle in
  let off0 = Durable.durable_offset r.Replay.durable in
  let updates0 = r.Replay.updates in
  let trace = Trace.create () in
  Replay.start_trace r trace;
  let cpu0 = Host.self_cpu_s () in
  Replay.feed r ~window timed;
  let cpu_s = Host.self_cpu_s () -. cpu0 in
  let st1 = Dyn_matching.stats dm and os1 = Oracle.stats r.Replay.oracle in
  let delta f = cache_sum f os1 - cache_sum f os0 in
  let out =
    {
      trace;
      cpu_s;
      updates = r.Replay.updates - updates0;
      oracle_queries = r.Replay.oracle_queries;
      oracle_probes = r.Replay.oracle_probes;
      rebuilds = st1.Dyn_matching.rebuilds - st0.Dyn_matching.rebuilds;
      rebuild_ns = Int64.to_int (Int64.sub st1.Dyn_matching.total_ns st0.Dyn_matching.total_ns);
      memo_hits = delta (fun c -> c.Cache.hits);
      memo_misses = delta (fun c -> c.Cache.misses);
      memo_evicted = delta (fun c -> c.Cache.invalidations);
      wal_bytes = Durable.durable_offset r.Replay.durable - off0;
      checksum = Replay.graph_checksum r;
    }
  in
  Replay.close r;
  ignore (fresh_dir rdir);
  out

let run kind ~seed ~seconds ~trace ~dir (rep : Report.t) =
  let ops = ops_per_part kind ~seconds in
  let inp = generate kind ~seed ~ops in
  let setup_s = Array.make setup_reps 0. in
  let s = ref None in
  for i = 0 to setup_reps - 1 do
    let t0 = Mono.now_ns () in
    let x = setup_once kind inp ~seed ~dir ~rep:i in
    setup_s.(i) <- Mono.s_of_ns (Mono.ns_since t0);
    if i < setup_reps - 1 then begin
      match teardown x with
      | Unix.WEXITED 0 -> ()
      | _ -> failwith "daemon did not drain cleanly after set-up"
    end
    else s := Some x
  done;
  let s = Option.get !s in
  let streams = Array.mapi (fun i c -> Loadgen.stream c inp.timed_frames.(i)) s.conns in
  let pid = s.daemon.Serve_daemon.pid in
  Report.print_stamp
    (Host.stamp ()
    @ [
      ("workload", name kind);
      ("journal_fs", Host.fs_type dir);
      ("fsync", "group-commit-per-loop-round+sync_every=32");
      ("loop", Printf.sprintf "closed,%d-conns,window=%d" parts window);
      ("partition", Printf.sprintf "%dx%d-vertices,preload=%d" parts span preload_edges);
      ("ops_per_conn", string_of_int ops);
      ("daemon_seed", string_of_int (daemon_seed ~seed));
      ("stream_seed", string_of_int (stream_seed ~seed));
    ]);
  (* ---- timed phase ---- *)
  let wal0 = wal_size s in
  let cpu0 = Host.cpu_s pid in
  let out = Loadgen.run ~window (Array.to_list streams) in
  let cpu1 = Host.cpu_s pid in
  let wal1 = wal_size s in
  (* ---- verification: the whole model, the digest, the counters ---- *)
  let verify =
    Array.mapi
      (fun i c ->
        Loadgen.stream c
          (Loadgen.encode
             (Array.map
                (fun ((u, v), present) ->
                  { Stationary.req = Wire.Query_edge (u, v); expect = Stationary.Answer present })
                (Stationary.model inp.models.(i)))))
      s.conns
  in
  ignore (Loadgen.run ~window (Array.to_list verify));
  let lost = Array.fold_left (fun a (v : Loadgen.stream) -> a + v.failed + v.mismatched) 0 verify in
  let digest =
    match Loadgen.call s.conns.(0) Wire.Checksum with
    | Wire.Digest d -> d
    | _ -> failwith "checksum: unexpected response"
  in
  let stats =
    match Loadgen.call s.conns.(0) Wire.Stats with
    | Wire.Stats_reply r -> r
    | _ -> failwith "stats: unexpected response"
  in
  let sent = Array.fold_left (fun a (c : Loadgen.conn) -> a + c.sent) 0 s.conns in
  let received = Array.fold_left (fun a (c : Loadgen.conn) -> a + c.received) 0 s.conns in
  let peak_rss = Host.vm_hwm_mb (Some pid) in
  let status = teardown s in
  let g = final_graph inp in
  let mcm = Matching.size (Blossom.solve g) in
  (* ---- checks ---- *)
  let timed_failed = Array.fold_left (fun a (t : Loadgen.stream) -> a + t.failed) 0 streams in
  let mismatched = Array.fold_left (fun a (t : Loadgen.stream) -> a + t.mismatched) 0 streams in
  Report.check rep (timed_failed = 0) (Printf.sprintf "%d timed requests failed" timed_failed);
  Report.check rep (mismatched = 0)
    (Printf.sprintf "%d timed replies disagree with the model" mismatched);
  Report.check rep (lost = 0) (Printf.sprintf "%d model edges answer Query_edge wrongly" lost);
  Report.check rep (Int64.equal digest.Wire.graph (Graph.checksum g))
    "daemon graph digest differs from the generator's models";
  Report.check rep (stats.Wire.malformed = 0)
    (Printf.sprintf "daemon counted %d malformed frames" stats.Wire.malformed);
  Report.check rep (stats.Wire.frames_in = sent)
    (Printf.sprintf "daemon read %d frames, generator sent %d" stats.Wire.frames_in sent);
  Report.check rep (stats.Wire.frames_out = received - 1)
    (Printf.sprintf "daemon wrote %d frames before Stats, generator read %d"
       stats.Wire.frames_out (received - 1));
  Report.check rep (status = Unix.WEXITED 0) "daemon did not drain cleanly";
  (* ---- end-to-end ---- *)
  let all = Array.to_list streams in
  let lat ~updates = Array.concat (List.map (Loadgen.latencies_ms ~updates) all) in
  let ulat = lat ~updates:true and qlat = lat ~updates:false in
  let total = Array.fold_left (fun a (t : Loadgen.stream) -> a + Array.length t.frames) 0 streams in
  let n_updates = Array.length ulat and n_queries = Array.length qlat in
  let wall_s = Mono.s_of_ns out.Loadgen.wall_ns in
  let failed = timed_failed + mismatched + lost + stats.Wire.busy_rejections in
  let gate = not trace in
  Report.add ~gate rep ~name:"setup_s" ~unit_:"s" ~samples:setup_reps (Pct.median setup_s);
  Report.add ~gate rep ~name:"peak_rss_mb" ~unit_:"MB" ~samples:1 peak_rss;
  Report.add ~gate rep ~name:"matching_ratio" ~unit_:"ratio" ~samples:1
    (float_of_int digest.Wire.matching /. float_of_int (Int.max 1 mcm));
  Report.add ~gate rep ~name:"ops_per_s" ~unit_:"1/s" ~samples:total
    (float_of_int total /. wall_s);
  Report.note_na rep ~name:"solve_p50_s" ~unit_:"s";
  let pct name xs =
    if Array.length xs = 0 then begin
      Report.note_na rep ~name:(name ^ "_p50_ms") ~unit_:"ms";
      Report.note_na rep ~name:(name ^ "_p99_ms") ~unit_:"ms"
    end
    else begin
      let p = Pct.of_samples xs in
      Report.add rep ~name:(name ^ "_p50_ms") ~unit_:"ms" ~samples:p.Pct.n p.Pct.p50;
      match p.Pct.p99 with
      | Some v -> Report.add rep ~name:(name ^ "_p99_ms") ~unit_:"ms" ~samples:p.Pct.n v
      | None ->
          Report.check rep false
            (Printf.sprintf "%s p99 rests on %d samples, fewer than %d" name p.Pct.n
               (Pct.samples_needed ~permille:990))
    end
  in
  pct "update" ulat;
  pct "query" qlat;
  Report.add rep ~name:"failed_ops_ratio" ~unit_:"ratio" ~samples:total
    (float_of_int failed /. float_of_int total);
  let wal_per_update = float_of_int (wal1 - wal0) /. float_of_int (Int.max 1 n_updates) in
  Report.fingerprint_int rep "acked_updates" n_updates;
  Report.fingerprint_int rep "answered_queries" n_queries;
  Report.fingerprint rep "durable.wal_bytes_per_update" (Printf.sprintf "%.6f" wal_per_update);
  Report.fingerprint_int rep "final_edges" (Graph.m g);
  Report.fingerprint_int rep "mcm" mcm;
  Report.fingerprint rep "daemon_matching" (string_of_int digest.Wire.matching);
  if trace then begin
    let r = replay inp ~dir ~seed in
    Trace.write r.trace (Filename.concat dir (Printf.sprintf "trace-%s.tsv" (name kind)));
    Report.check rep (Int64.equal r.checksum digest.Wire.graph)
      "replay graph digest differs from the daemon's";
    let replay_wal = float_of_int r.wal_bytes /. float_of_int (Int.max 1 r.updates) in
    Report.check rep (Float.equal replay_wal wal_per_update)
      (Printf.sprintf "replay WAL %.3f bytes/update, daemon %.3f" replay_wal wal_per_update);
    let aggs = Trace.aggregate r.trace in
    let mean_us name =
      let a = Trace.find aggs name in
      if a.Trace.count = 0 then 0. else Mono.us_of_ns a.Trace.total_ns /. float_of_int a.Trace.count
    in
    let fops = float_of_int total in
    let cpu_us_per_op = (cpu1 -. cpu0) *. 1e6 /. fops in
    (* CPU against CPU: fsync waits are off-CPU in both processes *)
    let busy_us_per_op = r.cpu_s *. 1e6 /. fops in
    let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
    Layers.emit rep ~samples:total
      [
        ("wire.decode_us", mean_us "wire.decode");
        ("wire.encode_us", mean_us "wire.encode");
        ("durable.apply_us", mean_us "durable.apply");
        ("durable.sync_us", mean_us "durable.sync");
        ("durable.wal_bytes_per_update", replay_wal);
        ("dyn_matching.rebuilds_per_kop", 1000. *. float_of_int r.rebuilds /. fops);
        ("dyn_matching.rebuild_ms", Mono.ms_of_ns r.rebuild_ns /. float_of_int (Int.max 1 r.rebuilds));
        ("dyn_matching.rebuild_share", ratio r.rebuild_ns (Trace.find aggs "durable.apply").Trace.total_ns);
        ("dyn_graph.has_edge_us", mean_us "dyn_graph.has_edge");
        ("oracle.in_gdelta_us", mean_us "oracle.in_gdelta");
        ("oracle.is_matched_us", mean_us "oracle.is_matched");
        ("oracle.probes_per_query", ratio r.oracle_probes r.oracle_queries);
        ("oracle.memo_hit_ratio", ratio r.memo_hits (r.memo_hits + r.memo_misses));
        ("oracle.invalidate_us", mean_us "oracle.invalidate");
        ("oracle.evicted_per_update", ratio r.memo_evicted r.updates);
        ("server.cpu_us_per_op", cpu_us_per_op);
        ("server.loop_us_per_op", cpu_us_per_op -. busy_us_per_op);
        ("server.busy_rejections", float_of_int stats.Wire.busy_rejections);
        ("loadgen.cpu_share", out.Loadgen.cpu_s /. wall_s);
        ("loadgen.wait_share", float_of_int out.Loadgen.wait_ns /. float_of_int out.Loadgen.wall_ns);
        ("trace.overhead_ratio", busy_us_per_op /. cpu_us_per_op);
      ]
  end;
  (total, failed)
