(* Host facts for the run stamp, and the /proc reads the metrics need:
   a process's peak resident set (VmHWM) and its CPU time. *)

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let buf = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel buf ic 1
         done
       with End_of_file -> ());
      close_in ic;
      Some (Buffer.contents buf)

let lines path =
  match read_file path with
  | None -> []
  | Some s -> String.split_on_char '\n' s

let field_value line =
  match String.index_opt line ':' with
  | None -> None
  | Some i ->
      Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))

let nproc () = Domain.recommended_domain_count ()

let cpu_model () =
  List.find_map
    (fun l ->
      if String.length l >= 10 && String.sub l 0 10 = "model name" then
        field_value l
      else None)
    (lines "/proc/cpuinfo")
  |> Option.value ~default:"unknown"

(* the host half of every run stamp *)
let stamp () =
  [
    ("nproc", string_of_int (nproc ()));
    ("cpu", String.map (fun c -> if c = ' ' then '_' else c) (cpu_model ()));
  ]

(* filesystem type of the mount holding [path]: the longest mount point
   that prefixes it *)
let fs_type path =
  let abs =
    if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path
    else path
  in
  let under mp =
    mp = "/"
    || String.length abs >= String.length mp
       && String.sub abs 0 (String.length mp) = mp
       && (String.length abs = String.length mp || abs.[String.length mp] = '/')
  in
  List.fold_left
    (fun (best_len, best) l ->
      match String.split_on_char ' ' l with
      | _dev :: mp :: ty :: _ when under mp && String.length mp > best_len ->
          (String.length mp, ty)
      | _ -> (best_len, best))
    (-1, "unknown") (lines "/proc/mounts")
  |> snd

(* peak resident set of a process, in MB *)
let vm_hwm_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  List.find_map
    (fun l ->
      if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
        match field_value l with
        | Some v -> (
            match String.split_on_char ' ' v with
            | kb :: _ -> Some (float_of_string kb /. 1024.)
            | [] -> None)
        | None -> None
      else None)
    (lines path)
  |> function
  | Some mb -> mb
  | None -> failwith ("no VmHWM in " ^ path)

(* USER_HZ: the kernel's clock-tick unit for /proc/PID/stat, 100 on
   every Linux ABI this runs on *)
let clk_tck = 100.

(* utime + stime of a process, in seconds *)
let cpu_s pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> failwith "no /proc/PID/stat"
  | Some s ->
      (* fields after the parenthesised command name, which may hold spaces *)
      let rest =
        let i = String.rindex s ')' in
        String.sub s (i + 2) (String.length s - i - 2)
      in
      let f = Array.of_list (String.split_on_char ' ' rest) in
      (* rest starts at field 3 (state); utime is field 14, stime 15 *)
      (float_of_string f.(11) +. float_of_string f.(12)) /. clk_tck

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime
