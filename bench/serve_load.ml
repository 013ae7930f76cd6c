(* Load generator for `mspar serve`: N concurrent connections, each
   pipelining a window of requests over its own disjoint vertex
   partition, with exponential-backoff reconnect and at-most-once
   request ids.  Because partitions are disjoint, every client can hold
   an exact model of its own edges, so "zero acknowledged-update loss"
   is checked literally at the end: after the last ack, every edge the
   model says exists must answer Query_edge = true (and vice versa for
   touched-but-absent edges).

   Reports p50/p99 request latency and sustained updates/sec into
   bench_csv/serve-load.csv (when the harness runs with --csv). *)

open Mspar_prelude
open Mspar_server

type action = Update of Serve_util.op | Query of Wire.request

type pending = { action : action; rid : int; first_send : float }

type client_state = {
  id : int;
  addr : Wire.addr;
  mutable conn : Client.t;
  actions : action array;
  rids : int array;  (* rid per action index; 0 for queries *)
  mutable next : int;  (* next action index to send *)
  mutable inflight : pending list;  (* oldest first — response FIFO *)
  model : (int * int, bool) Hashtbl.t;
  mutable acked_updates : int;
  mutable busy_retries : int;
  mutable reconnects : int;
  mutable latencies : float list;  (* acked updates *)
  mutable query_latencies : float list;  (* Bool-answered point queries *)
}

let key u v = if u < v then (u, v) else (v, u)

let make_actions rng ~base ~span ~updates ~queries =
  let ops = Serve_util.make_ops rng ~n:span ~count:updates in
  let shift = function
    | Serve_util.Ins (u, v) -> Serve_util.Ins (base + u, base + v)
    | Serve_util.Del (u, v) -> Serve_util.Del (base + u, base + v)
  in
  let qs =
    Array.init queries (fun _ ->
        let u = base + Rng.int rng span in
        let v = base + Rng.int rng span in
        match Rng.int rng 3 with
        | 0 -> Wire.Query_matched u
        | 1 -> Wire.Query_edge (u, v)
        | _ -> Wire.Query_sparsifier (u, v))
  in
  let all =
    Array.append
      (Array.map (fun o -> Update (shift o)) ops)
      (Array.map (fun q -> Query q) qs)
  in
  Rng.shuffle_in_place rng all;
  (* rids number the updates 1.. in stream order *)
  let rid = ref 0 in
  let rids =
    Array.map
      (function
        | Update _ ->
            incr rid;
            !rid
        | Query _ -> 0)
      all
  in
  (all, rids)

let request_of c = function
  | Update (Serve_util.Ins (u, v)), rid -> Wire.Insert { rid; u; v }
  | Update (Serve_util.Del (u, v)), rid -> Wire.Delete { rid; u; v }
  | Query q, _ ->
      ignore c;
      q

let send_action c (p : pending) =
  match Client.send c.conn (request_of c (p.action, p.rid)) with
  | Ok () -> true
  | Error _ -> false

let reconnect c =
  Client.close c.conn;
  c.reconnects <- c.reconnects + 1;
  (* full-jitter backoff seeded per client: a herd of reconnecting
     clients fans out instead of hammering the fresh listener in sync *)
  match
    Client.connect_retry ~attempts:10 ~base_delay:0.05 ~cap:2.0
      ~seed:(0x5eed + c.id)
      c.addr
  with
  | Error msg -> failwith ("serve_load: reconnect: " ^ msg)
  | Ok conn ->
      c.conn <- conn;
      Serve_util.hello conn c.id;
      (* replay the in-flight window: updates are deduped server-side,
         queries are just re-answered *)
      List.iter (fun p -> ignore (send_action c p)) c.inflight

let apply_model c = function
  | Serve_util.Ins (u, v) -> if u <> v then Hashtbl.replace c.model (key u v) true
  | Serve_util.Del (u, v) -> if u <> v then Hashtbl.replace c.model (key u v) false

(* consume one response for the oldest in-flight request *)
let handle_response c resp now =
  match c.inflight with
  | [] -> failwith "serve_load: response with nothing in flight"
  | p :: rest -> (
      match resp with
      | Wire.Busy ms ->
          c.busy_retries <- c.busy_retries + 1;
          c.inflight <- rest;
          (* jittered retry-after from the server; honour it (it is a
             few ms) then resend the same rid at the back of the window *)
          Unix.sleepf (float_of_int ms /. 1000.);
          c.inflight <- c.inflight @ [ p ];
          if not (send_action c p) then reconnect c
      | Wire.Ack changed ->
          ignore changed;
          c.inflight <- rest;
          c.latencies <- (now -. p.first_send) :: c.latencies;
          (match p.action with
          | Update op ->
              c.acked_updates <- c.acked_updates + 1;
              apply_model c op
          | Query _ -> failwith "serve_load: Ack for a query");
          ()
      | Wire.Bool _ ->
          c.inflight <- rest;
          c.query_latencies <- (now -. p.first_send) :: c.query_latencies
      | Wire.Error msg -> failwith ("serve_load: server error: " ^ msg)
      | Wire.Draining -> failwith "serve_load: unexpected Draining"
      | Wire.Ok | Wire.Digest _ | Wire.Stats_reply _ | Wire.Repl_snapshot _
      | Wire.Repl_frames _ | Wire.Repl_fence _ | Wire.Redirect _
      | Wire.Role_reply _ ->
          failwith "serve_load: unexpected response")

let top_up c ~window =
  while List.length c.inflight < window && c.next < Array.length c.actions do
    let i = c.next in
    c.next <- i + 1;
    let p =
      { action = c.actions.(i); rid = c.rids.(i); first_send = Unix.gettimeofday () }
    in
    c.inflight <- c.inflight @ [ p ];
    if not (send_action c p) then reconnect c
  done

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(Int.min (n - 1) (int_of_float (p *. float_of_int n)))

let run ?(smoke = false) ?query_frac () =
  Serve_util.ignore_sigpipe ();
  let nclients = if smoke then 4 else 8 in
  let window = 4 in
  let span = 64 in
  let updates = if smoke then 300 else 13_000 in
  let queries = if smoke then 150 else 5_000 in
  (* --query-frac F reshapes the same total action count into an
     F-queries mixed workload, so read-heavy serve profiles (the oracle
     path) are one flag away *)
  let updates, queries =
    match query_frac with
    | None -> (updates, queries)
    | Some f ->
        let f = Float.max 0.0 (Float.min 0.95 f) in
        let total = updates + queries in
        let q = int_of_float (f *. float_of_int total) in
        (total - q, q)
  in
  let seed = 42 in
  let n = nclients * span in
  Serve_util.with_scratch @@ fun sc ->
  let dir = Serve_util.scratch_dir sc "serve-load" in
  let addr = Wire.Unix_path (Serve_util.scratch_sock sc "load") in
  let cfg = Serve_util.config ~n ~seed in
  let pid =
    Serve_util.fork_server ~sync_every:64 ~snapshot_every:50_000 ~fresh:true
      ~dir ~addr cfg
  in
  let clients =
    Array.init nclients (fun i ->
        let conn = Serve_util.await addr in
        Serve_util.hello conn (i + 1);
        let rng = Rng.create (seed + (1000 * (i + 1))) in
        let actions, rids =
          make_actions rng ~base:(i * span) ~span ~updates ~queries
        in
        {
          id = i + 1;
          addr;
          conn;
          actions;
          rids;
          next = 0;
          inflight = [];
          model = Hashtbl.create 256;
          acked_updates = 0;
          busy_retries = 0;
          reconnects = 0;
          latencies = [];
          query_latencies = [];
        })
  in
  let t0 = Unix.gettimeofday () in
  Array.iter (fun c -> top_up c ~window) clients;
  let live () =
    Array.exists
      (fun c -> c.next < Array.length c.actions || c.inflight <> [])
      clients
  in
  (* one response, then everything already buffered client-side:
     Client.recv parses a single frame per call, and select never fires
     for frames that were read off the wire in an earlier chunk — a
     client whose whole window was answered in one read would otherwise
     starve forever once it has nothing left to send *)
  let drain_buffered c =
    let rec go () =
      match Client.recv ~timeout:0. c.conn with
      | Ok resp ->
          handle_response c resp (Unix.gettimeofday ());
          go ()
      | Error _ -> () (* Need_more: nothing complete in the buffer *)
    in
    go ()
  in
  while live () do
    let waiting =
      Array.to_list clients |> List.filter (fun c -> c.inflight <> [])
    in
    let fds = List.map (fun c -> Client.fd c.conn) waiting in
    (match Unix.select fds [] [] 1.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | rs, _, _ ->
        List.iter
          (fun c ->
            if List.memq (Client.fd c.conn) rs then begin
              match Client.recv ~timeout:5.0 c.conn with
              | Ok resp ->
                  handle_response c resp (Unix.gettimeofday ());
                  drain_buffered c
              | Error _ -> reconnect c
            end)
          waiting);
    Array.iter (fun c -> top_up c ~window) clients
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  (* zero acknowledged-update loss, literally: the server's answer for
     every touched edge equals the client's acked model *)
  let lost = ref 0 in
  Array.iter
    (fun c ->
      Hashtbl.iter
        (fun (u, v) expected ->
          match Client.request c.conn (Wire.Query_edge (u, v)) with
          | Ok (Wire.Bool got) -> if not (Bool.equal got expected) then incr lost
          | Ok _ | Error _ -> incr lost)
        c.model)
    clients;
  assert (!lost = 0);
  Array.iter (fun c -> Client.close c.conn) clients;
  let status = Serve_util.stop_server pid in
  assert (match status with Unix.WEXITED 0 -> true | _ -> false);
  let lats =
    Array.to_list clients |> List.concat_map (fun c -> c.latencies)
    |> Array.of_list
  in
  Array.sort Float.compare lats;
  let qlats =
    Array.to_list clients
    |> List.concat_map (fun c -> c.query_latencies)
    |> Array.of_list
  in
  Array.sort Float.compare qlats;
  let total_updates =
    Array.fold_left (fun a c -> a + c.acked_updates) 0 clients
  in
  let total_queries = nclients * queries in
  let busy = Array.fold_left (fun a c -> a + c.busy_retries) 0 clients in
  let reconnects = Array.fold_left (fun a c -> a + c.reconnects) 0 clients in
  let t =
    Table.create
      ~title:
        "serve-load (N concurrent connections against mspar serve; \
         update and point-query latencies split, zero acked-update loss \
         asserted)"
      ~columns:
        [
          "clients"; "window"; "updates"; "queries"; "busy"; "reconnects";
          "elapsed-s"; "updates/s"; "p50-ms"; "p99-ms"; "q-p50-ms";
          "q-p99-ms"; "lost-acked";
        ]
  in
  Table.add_row t
    [
      Table.cell_i nclients;
      Table.cell_i window;
      Table.cell_i total_updates;
      Table.cell_i total_queries;
      Table.cell_i busy;
      Table.cell_i reconnects;
      Table.cell_f elapsed;
      Table.cell_f (float_of_int total_updates /. elapsed);
      Table.cell_f (1000. *. percentile lats 0.50);
      Table.cell_f (1000. *. percentile lats 0.99);
      Table.cell_f (1000. *. percentile qlats 0.50);
      Table.cell_f (1000. *. percentile qlats 0.99);
      Table.cell_i !lost;
    ];
  Experiments.emit t

let smoke ?query_frac () = run ~smoke:true ?query_frac ()
