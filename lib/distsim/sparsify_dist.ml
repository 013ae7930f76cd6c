open Mspar_prelude
open Mspar_graph
open Mspar_core

type stats = {
  rounds : int;
  messages : int;
  bits : int;
  faults : Faults.report;
}

type reliable_stats = {
  base : stats;
  attempts : int;
  unacked : int;
}

let stats_of net =
  {
    rounds = Network.rounds net;
    messages = Network.messages net;
    bits = Network.bits net;
    faults = Network.fault_report net;
  }

(* The per-vertex mark choices of G_Delta.  Processor v marks through
   [Mark_kernel] from [(seed, v)], its own randomness, so the fault-free
   round builds [Gdelta.sparsify]'s graph for the same generator, and the
   reliable variant targets that graph too.  The sampler is simulation
   scratch shared across processors; no choice depends on another's. *)
let choose_marks net ~seed ~delta =
  let keep =
    Mark_kernel.threshold Mark_kernel.Mark_all_at_most_two_delta delta
  in
  let sampler =
    Sampling.create ~capacity:(Graph.max_degree (Network.graph net))
  in
  let idx = Array.make delta 0 in
  Array.init (Network.n net) (fun v ->
      let nbrs = Network.neighbors net v in
      let d = Array.length nbrs in
      if d <= keep then Array.copy nbrs
      else begin
        Mark_kernel.sampled_indices_into sampler ~seed v ~delta ~degree:d
          ~out:idx;
        Array.map (fun i -> nbrs.(i)) idx
      end)

let gdelta ?faults rng g ~delta =
  if delta < 1 then invalid_arg "Sparsify_dist.gdelta: delta >= 1";
  let net = Network.create ?faults g in
  let nv = Network.n net in
  let marks = choose_marks net ~seed:(Mark_kernel.seed_of rng) ~delta in
  for v = 0 to nv - 1 do
    if not (Network.is_crashed net v) then
      Array.iter (fun u -> Network.send net ~src:v ~dst:u ()) marks.(v)
  done;
  Network.deliver net;
  (* an edge is in the sparsifier iff either endpoint received a mark on it;
     locally, each vertex's incident sparsifier edges are those it marked
     plus those in its inbox — pushed straight into the packed CSR builder *)
  let sparsifier =
    Graph.of_edges_iter ~n:nv (fun push ->
        for v = 0 to nv - 1 do
          List.iter (fun (u, ()) -> push u v) (Network.inbox net v)
        done)
  in
  (sparsifier, stats_of net)

(* ------------------------------------------------------------------ *)
(* Self-healing G_Delta: mark -> ack -> re-mark                       *)
(* ------------------------------------------------------------------ *)

type rmsg = Mark | Ack

let gdelta_reliable ?faults rng g ~delta ~retries =
  if delta < 1 then invalid_arg "Sparsify_dist.gdelta_reliable: delta >= 1";
  if retries < 0 then invalid_arg "Sparsify_dist.gdelta_reliable: retries >= 0";
  let net : rmsg Network.t = Network.create ?faults g in
  let nv = Network.n net in
  let marks = choose_marks net ~seed:(Mark_kernel.seed_of rng) ~delta in
  let live v = not (Network.is_crashed net v) in
  (* per-vertex sender state: which of my marks were acknowledged *)
  let acked = Array.map (fun ms -> Array.make (Array.length ms) false) marks in
  let mark_index =
    Array.map
      (fun ms ->
        let h = Hashtbl.create (2 * Array.length ms) in
        Array.iteri (fun i u -> Hashtbl.replace h u i) ms;
        h)
      marks
  in
  (* receiver state: marks observed on incident edges, (receiver, sender) *)
  let received = Hashtbl.create (4 * nv) in
  let any_unacked () =
    let any = ref false in
    for v = 0 to nv - 1 do
      if live v then
        Array.iter (fun a -> if not a then any := true) acked.(v)
    done;
    !any
  in
  (* every delivery is scanned for both message kinds, so marks that arrive
     late (stragglers, reordering) are still recorded and acknowledged *)
  let process_inboxes () =
    for w = 0 to nv - 1 do
      if live w then
        List.iter
          (fun (src, m) ->
            match m with
            | Mark ->
                Hashtbl.replace received (w, src) ();
                Network.send net ~src:w ~dst:src Ack
            | Ack -> (
                match Hashtbl.find_opt mark_index.(w) src with
                | Some i -> acked.(w).(i) <- true
                | None -> ()))
          (Network.inbox net w)
    done
  in
  let attempts = ref 0 in
  while !attempts <= retries && any_unacked () do
    incr attempts;
    (* (re-)mark round: resend every not-yet-acknowledged mark *)
    for v = 0 to nv - 1 do
      if live v then
        Array.iteri
          (fun i u -> if not acked.(v).(i) then Network.send net ~src:v ~dst:u Mark)
          marks.(v)
    done;
    Network.deliver net;
    process_inboxes ();
    (* ack round: the implicit timeout is the synchronous round structure —
       an ack missing after this delivery means the mark (or its ack) was
       lost, and the mark is retried on the next attempt *)
    Network.deliver net;
    process_inboxes ()
  done;
  let unacked = ref 0 in
  for v = 0 to nv - 1 do
    if live v then
      Array.iter (fun a -> if not a then incr unacked) acked.(v)
  done;
  let sparsifier =
    Graph.of_edges_iter ~n:nv (fun push ->
        Hashtbl.iter (fun (w, src) () -> push src w) received)
  in
  (sparsifier, { base = stats_of net; attempts = !attempts; unacked = !unacked })

(* ------------------------------------------------------------------ *)
(* Solomon marking round                                              *)
(* ------------------------------------------------------------------ *)

let solomon ?faults g ~delta_alpha =
  if delta_alpha < 1 then invalid_arg "Sparsify_dist.solomon: delta_alpha >= 1";
  let net = Network.create ?faults g in
  let nv = Network.n net in
  let live v = not (Network.is_crashed net v) in
  for v = 0 to nv - 1 do
    if live v then begin
      let nbrs = Network.neighbors net v in
      let d = min delta_alpha (Array.length nbrs) in
      for i = 0 to d - 1 do
        Network.send net ~src:v ~dst:nbrs.(i) ()
      done
    end
  done;
  Network.deliver net;
  (* keep an edge iff v marked u AND u marked v: v knows the first from its
     own choice and the second from its inbox *)
  let marked = Hashtbl.create (4 * nv) in
  for v = 0 to nv - 1 do
    if live v then begin
      let nbrs = Network.neighbors net v in
      let d = min delta_alpha (Array.length nbrs) in
      for i = 0 to d - 1 do
        let u = nbrs.(i) in
        Hashtbl.replace marked (v, u) ()
      done
    end
  done;
  let sparsifier =
    Graph.of_edges_iter ~n:nv (fun push ->
        for v = 0 to nv - 1 do
          List.iter
            (fun (u, ()) ->
              (* v received u's mark; the edge survives if v also marked u *)
              if Hashtbl.mem marked (v, u) && v < u then push v u)
            (Network.inbox net v)
        done)
  in
  (sparsifier, stats_of net)

let composed ?faults rng g ~beta ~eps ?(multiplier = 2.0) () =
  let delta = Delta_param.scaled ~multiplier ~beta ~eps in
  let s1, st1 = gdelta ?faults rng g ~delta in
  let delta_alpha = Solomon.delta_alpha ~alpha:(2 * delta) ~eps in
  let s2, st2 = solomon ?faults s1 ~delta_alpha in
  ( s2,
    {
      rounds = st1.rounds + st2.rounds;
      messages = st1.messages + st2.messages;
      bits = st1.bits + st2.bits;
      faults = Faults.add_report st1.faults st2.faults;
    } )

let composed_reliable ?faults rng g ~beta ~eps ~retries ?(multiplier = 2.0) () =
  let delta = Delta_param.scaled ~multiplier ~beta ~eps in
  let s1, r1 = gdelta_reliable ?faults rng g ~delta ~retries in
  let delta_alpha = Solomon.delta_alpha ~alpha:(2 * delta) ~eps in
  let s2, st2 = solomon ?faults s1 ~delta_alpha in
  ( s2,
    {
      base =
        {
          rounds = r1.base.rounds + st2.rounds;
          messages = r1.base.messages + st2.messages;
          bits = r1.base.bits + st2.bits;
          faults = Faults.add_report r1.base.faults st2.faults;
        };
      attempts = r1.attempts;
      unacked = r1.unacked;
    } )
