(* Persistent, lazily-started domain pool.

   One worker domain per pool slot beyond the caller; workers park on a
   condition variable between jobs, so the Domain.spawn cost is paid once
   per process (on the first parallel call) instead of once per
   sparsification.  The caller always executes worker slot 0 itself, so a
   size-1 pool never spawns anything — the graceful single-domain
   fallback.

   Memory-model note: a job's writes become visible to the submitter (and,
   transitively, to workers of later phases) through the mutex hand-off in
   [submit]/[await]; phases separated by [parallel_for_ranges] calls
   therefore need no extra synchronisation as long as concurrent chunks
   write disjoint locations. *)

type state = Idle | Pending of (unit -> unit) | Quit

type worker = {
  lock : Mutex.t;
  job_ready : Condition.t;
  job_done : Condition.t;
  mutable state : state;
  mutable finished : bool;
  mutable error : exn option;
  mutable domain : unit Domain.t option;
}

type t = {
  size : int;
  pool_lock : Mutex.t; (* guards lazy start and shutdown *)
  mutable workers : worker array; (* size - 1 entries once started *)
}

(* OCaml's runtime supports at most ~128 live domains; reject anything
   beyond that during validation rather than failing inside Domain.spawn. *)
let max_domains = 128

let create ~num_domains () =
  if num_domains < 1 || num_domains > max_domains then
    invalid_arg "Pool.create: num_domains must be in [1, 128]";
  { size = num_domains; pool_lock = Mutex.create (); workers = [||] }

let size t = t.size

(* ------------------------------------------------------------------ *)
(* worker protocol                                                    *)
(* ------------------------------------------------------------------ *)

let make_worker () =
  {
    lock = Mutex.create ();
    job_ready = Condition.create ();
    job_done = Condition.create ();
    state = Idle;
    finished = false;
    error = None;
    domain = None;
  }

let worker_loop w =
  let running = ref true in
  while !running do
    Mutex.lock w.lock;
    while match w.state with Idle -> true | Pending _ | Quit -> false do
      Condition.wait w.job_ready w.lock
    done;
    match w.state with
    | Idle ->
        (* unreachable: the wait loop above only exits on Pending/Quit *)
        Mutex.unlock w.lock
    | Quit ->
        w.state <- Idle;
        Mutex.unlock w.lock;
        running := false
    | Pending f ->
        w.state <- Idle;
        Mutex.unlock w.lock;
        let err = match f () with () -> None | exception e -> Some e in
        Mutex.lock w.lock;
        w.error <- err;
        w.finished <- true;
        Condition.signal w.job_done;
        Mutex.unlock w.lock
  done

let submit w f =
  Mutex.lock w.lock;
  w.finished <- false;
  w.error <- None;
  w.state <- Pending f;
  Condition.signal w.job_ready;
  Mutex.unlock w.lock

let await w =
  Mutex.lock w.lock;
  while not w.finished do
    Condition.wait w.job_done w.lock
  done;
  Mutex.unlock w.lock;
  w.error

(* Lazy start: spawn the worker domains on the first parallel call.  If the
   runtime refuses to spawn (domain limit reached), keep whatever subset
   did spawn — the pool degrades to fewer workers, down to the sequential
   caller-only fallback, instead of failing. *)
let ensure_started t =
  Mutex.lock t.pool_lock;
  if t.size > 1 && Array.length t.workers = 0 then begin
    let spawned = ref [] in
    (try
       for _ = 1 to t.size - 1 do
         let w = make_worker () in
         let d = Domain.spawn (fun () -> worker_loop w) in
         w.domain <- Some d;
         spawned := w :: !spawned
       done
     with _ -> ());
    t.workers <- Array.of_list (List.rev !spawned)
  end;
  Mutex.unlock t.pool_lock

let shutdown t =
  Mutex.lock t.pool_lock;
  let ws = t.workers in
  t.workers <- [||];
  Mutex.unlock t.pool_lock;
  Array.iter
    (fun w ->
      Mutex.lock w.lock;
      w.state <- Quit;
      Condition.signal w.job_ready;
      Mutex.unlock w.lock;
      match w.domain with Some d -> Domain.join d | None -> ())
    ws

(* ------------------------------------------------------------------ *)
(* range splitting                                                    *)
(* ------------------------------------------------------------------ *)

let chunk_bounds ~chunks ~n k =
  if chunks < 1 then invalid_arg "Pool.chunk_bounds: chunks must be >= 1";
  if n < 0 then invalid_arg "Pool.chunk_bounds: negative n";
  if k < 0 || k >= chunks then invalid_arg "Pool.chunk_bounds: chunk index out of range";
  let q = n / chunks and r = n mod chunks in
  let lo = (k * q) + Int.min k r in
  (lo, lo + q + if k < r then 1 else 0)

let parallel_for_ranges t ?chunks ~n f =
  let nchunks =
    match chunks with
    | None -> t.size
    | Some c ->
        if c < 1 then invalid_arg "Pool.parallel_for_ranges: chunks must be >= 1";
        c
  in
  if n < 0 then invalid_arg "Pool.parallel_for_ranges: negative n";
  (* worker slot [w] of [nw] executes chunks w, w + nw, w + 2nw, ... *)
  let run_slot slot nw =
    let k = ref slot in
    while !k < nchunks do
      let lo, hi = chunk_bounds ~chunks:nchunks ~n !k in
      f ~chunk:!k ~lo ~hi;
      k := !k + nw
    done
  in
  if t.size = 1 || nchunks = 1 then run_slot 0 1
  else begin
    ensure_started t;
    let ws = t.workers in
    let nw = Int.min (Array.length ws + 1) nchunks in
    if nw <= 1 then run_slot 0 1
    else begin
      for i = 1 to nw - 1 do
        submit ws.(i - 1) (fun () -> run_slot i nw)
      done;
      let own = match run_slot 0 nw with () -> None | exception e -> Some e in
      let first = ref own in
      for i = 1 to nw - 1 do
        match (await ws.(i - 1), !first) with
        | Some e, None -> first := Some e
        | (Some _ | None), _ -> ()
      done;
      match !first with Some e -> raise e | None -> ()
    end
  end
