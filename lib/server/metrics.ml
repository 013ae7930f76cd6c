(* Plain mutable counters for the serve loop — single-threaded event
   loop, so no atomics needed.  [summary] freezes them into the wire
   record answered to a Stats request.  The oracle's memo counters stay
   in the oracle; [summary] reads them when it reports. *)

open Mspar_lca

type t = {
  mutable accepted : int;
  mutable active : int;
  mutable frames_in : int;
  mutable frames_out : int;
  mutable malformed : int;
  busy_rejections : int;
  mutable ops_applied : int;
  mutable dedup_hits : int;
  mutable queries : int;
  mutable oracle : Oracle.t option;
  mutable repl_followers : int;
  mutable repl_lag : int;
  mutable repl_fenced : int;
}

let create () =
  {
    accepted = 0;
    active = 0;
    frames_in = 0;
    frames_out = 0;
    malformed = 0;
    busy_rejections = 0;
    ops_applied = 0;
    dedup_hits = 0;
    queries = 0;
    oracle = None;
    repl_followers = 0;
    repl_lag = 0;
    repl_fenced = 0;
  }

(* cumulative (hits, misses) over the oracle's three memos *)
let oracle_counts t =
  match t.oracle with
  | None -> (0, 0)
  | Some o ->
      let s = Oracle.stats o in
      let sum f =
        f s.Oracle.mark_cache + f s.Oracle.edge_cache + f s.Oracle.mm_cache
      in
      (sum (fun c -> c.Cache.hits), sum (fun c -> c.Cache.misses))

let summary t =
  let oracle_hits, oracle_misses = oracle_counts t in
  {
    Wire.accepted = t.accepted;
    active = t.active;
    frames_in = t.frames_in;
    frames_out = t.frames_out;
    malformed = t.malformed;
    busy_rejections = t.busy_rejections;
    ops_applied = t.ops_applied;
    dedup_hits = t.dedup_hits;
    queries = t.queries;
    oracle_hits;
    oracle_misses;
    repl_followers = t.repl_followers;
    repl_lag = t.repl_lag;
    repl_fenced = t.repl_fenced;
  }
