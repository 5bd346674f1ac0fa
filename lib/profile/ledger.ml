module Json = Dgc_telemetry.Json

type entry = {
  e_trace : string;
  mutable e_root : string;
  mutable e_started : float;  (** sim seconds; negative = unknown *)
  mutable e_concluded : float option;
  mutable e_outcome : string option;  (** ["garbage"] or ["live"] *)
  mutable e_frames : int;
  mutable e_calls : int;
  mutable e_retries : int;
  mutable e_memo_hits : int;
  mutable e_timeouts : int;
  mutable e_reports : int;
  e_msgs : (string, int ref) Hashtbl.t;
  e_bytes : (string, int ref) Hashtbl.t;
}

type t = { entries : (string, entry) Hashtbl.t }

let create () = { entries = Hashtbl.create 64 }

let entry t trace =
  match Hashtbl.find_opt t.entries trace with
  | Some e -> e
  | None ->
      let e =
        {
          e_trace = trace;
          e_root = "";
          e_started = -1.;
          e_concluded = None;
          e_outcome = None;
          e_frames = 0;
          e_calls = 0;
          e_retries = 0;
          e_memo_hits = 0;
          e_timeouts = 0;
          e_reports = 0;
          e_msgs = Hashtbl.create 8;
          e_bytes = Hashtbl.create 8;
        }
      in
      Hashtbl.add t.entries trace e;
      e

let bump tbl k n =
  match Hashtbl.find_opt tbl k with
  | Some r -> r := !r + n
  | None -> Hashtbl.add tbl k (ref n)

let on_start t ~trace ~root ~at =
  let e = entry t trace in
  if e.e_root = "" then e.e_root <- root;
  if e.e_started < 0. then e.e_started <- at

let on_msg t ~trace ~kind ~bytes =
  let e = entry t trace in
  bump e.e_msgs kind 1;
  bump e.e_bytes kind bytes

let on_frame t ~trace =
  let e = entry t trace in
  e.e_frames <- e.e_frames + 1

let on_call t ~trace =
  let e = entry t trace in
  e.e_calls <- e.e_calls + 1

let on_retry t ~trace =
  let e = entry t trace in
  e.e_retries <- e.e_retries + 1

let on_memo_hit t ~trace =
  let e = entry t trace in
  e.e_memo_hits <- e.e_memo_hits + 1

let on_timeout t ~trace =
  let e = entry t trace in
  e.e_timeouts <- e.e_timeouts + 1

let on_report t ~trace =
  let e = entry t trace in
  e.e_reports <- e.e_reports + 1

(* The back trace concludes each trace at most once: only the
   initiator's single root frame concludes, and §4.5 report re-sends
   never do. Should a trace conclude twice anyway, the first verdict
   and critical path stand. *)
let on_conclude t ~trace ~outcome ~at =
  let e = entry t trace in
  if e.e_outcome = None then begin
    e.e_outcome <- Some outcome;
    e.e_concluded <- Some at
  end

let find t trace = Hashtbl.find_opt t.entries trace

let entries t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.entries []
  |> List.sort (fun a b -> String.compare a.e_trace b.e_trace)

let tbl_total tbl = Hashtbl.fold (fun _ r acc -> acc + !r) tbl 0
let msg_total e = tbl_total e.e_msgs
let byte_total e = tbl_total e.e_bytes

type rollup = {
  r_traces : int;
  r_collected : int;  (** traces concluded Garbage *)
  r_live : int;
  r_msgs : int;
  r_bytes : int;
  r_frames : int;
  r_retries : int;
  r_memo_hits : int;
  r_msgs_per_cycle_milli : int;
  r_bytes_per_cycle_milli : int;
}

(* Cost per *successfully collected* cycle amortises the traces that
   concluded Live or never concluded: that protocol budget was spent
   either way. Ratios are integer milli-units so exact-counter bench
   gates can pin them. *)
let rollup t =
  let es = entries t in
  let collected =
    List.length (List.filter (fun e -> e.e_outcome = Some "garbage") es)
  in
  let live =
    List.length (List.filter (fun e -> e.e_outcome = Some "live") es)
  in
  let msgs = List.fold_left (fun a e -> a + msg_total e) 0 es in
  let bytes = List.fold_left (fun a e -> a + byte_total e) 0 es in
  let per_cycle total = if collected = 0 then 0 else 1000 * total / collected in
  {
    r_traces = List.length es;
    r_collected = collected;
    r_live = live;
    r_msgs = msgs;
    r_bytes = bytes;
    r_frames = List.fold_left (fun a e -> a + e.e_frames) 0 es;
    r_retries = List.fold_left (fun a e -> a + e.e_retries) 0 es;
    r_memo_hits = List.fold_left (fun a e -> a + e.e_memo_hits) 0 es;
    r_msgs_per_cycle_milli = per_cycle msgs;
    r_bytes_per_cycle_milli = per_cycle bytes;
  }

let critical_path_ms e =
  match e.e_concluded with
  | Some c when e.e_started >= 0. -> Some ((c -. e.e_started) *. 1000.)
  | _ -> None

let describe e =
  Printf.sprintf
    "ledger %s: msgs=%d bytes=%d frames=%d calls=%d retries=%d memo_hits=%d \
     timeouts=%d reports=%d%s"
    e.e_trace (msg_total e) (byte_total e) e.e_frames e.e_calls e.e_retries
    e.e_memo_hits e.e_timeouts e.e_reports
    (match critical_path_ms e with
    | Some ms -> Printf.sprintf " critical_path=%.1fms" ms
    | None -> " (no conclusion)")

let sorted_obj tbl =
  Hashtbl.fold (fun k r acc -> (k, Json.Int !r) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let json_of_entry e =
  Json.Obj
    [
      ("trace", Json.Str e.e_trace);
      ("root", Json.Str e.e_root);
      ("started", if e.e_started < 0. then Json.Null else Json.Float e.e_started);
      ( "concluded",
        match e.e_concluded with Some c -> Json.Float c | None -> Json.Null );
      ( "outcome",
        match e.e_outcome with Some o -> Json.Str o | None -> Json.Null );
      ("frames", Json.Int e.e_frames);
      ("calls", Json.Int e.e_calls);
      ("retries", Json.Int e.e_retries);
      ("memo_hits", Json.Int e.e_memo_hits);
      ("timeouts", Json.Int e.e_timeouts);
      ("reports", Json.Int e.e_reports);
      ("msgs", Json.Obj (sorted_obj e.e_msgs));
      ("bytes", Json.Obj (sorted_obj e.e_bytes));
      ( "critical_path_ms",
        match critical_path_ms e with
        | Some ms -> Json.Float ms
        | None -> Json.Null );
    ]

let json_of_rollup r =
  Json.Obj
    [
      ("traces", Json.Int r.r_traces);
      ("collected", Json.Int r.r_collected);
      ("live", Json.Int r.r_live);
      ("msgs", Json.Int r.r_msgs);
      ("bytes", Json.Int r.r_bytes);
      ("frames", Json.Int r.r_frames);
      ("retries", Json.Int r.r_retries);
      ("memo_hits", Json.Int r.r_memo_hits);
      ("msgs_per_cycle_milli", Json.Int r.r_msgs_per_cycle_milli);
      ("bytes_per_cycle_milli", Json.Int r.r_bytes_per_cycle_milli);
    ]

let to_json t =
  Json.Obj
    [
      ("traces", Json.Arr (List.map json_of_entry (entries t)));
      ("rollup", json_of_rollup (rollup t));
    ]

(* ---- validation ------------------------------------------------------- *)

let ( let* ) = Result.bind

let need_int name = function
  | Some j -> (
      match Json.to_int_opt j with
      | Some n when n >= 0 -> Ok n
      | Some _ -> Error (name ^ " is negative")
      | None -> Error (name ^ " is not an int"))
  | None -> Error (name ^ " missing")

let int_obj name = function
  | Some (Json.Obj fields) ->
      let rec go = function
        | [] -> Ok ()
        | (_, Json.Int n) :: tl when n >= 0 -> go tl
        | (k, _) :: _ -> Error (name ^ "." ^ k ^ " is not a non-negative int")
      in
      go fields
  | _ -> Error (name ^ " is not an object")

let validate_entry j =
  match j with
  | Json.Obj _ ->
      let* _ =
        match Json.member "trace" j with
        | Some (Json.Str s) when s <> "" -> Ok s
        | _ -> Error "ledger trace id missing"
      in
      let* _ = need_int "frames" (Json.member "frames" j) in
      let* _ = need_int "retries" (Json.member "retries" j) in
      let* () = int_obj "msgs" (Json.member "msgs" j) in
      let* () = int_obj "bytes" (Json.member "bytes" j) in
      Ok ()
  | _ -> Error "ledger entry is not an object"

let validate j =
  match Json.member "traces" j with
  | Some (Json.Arr es) ->
      let* () =
        List.fold_left
          (fun acc e ->
            let* () = acc in
            validate_entry e)
          (Ok ()) es
      in
      let* r =
        match Json.member "rollup" j with
        | Some (Json.Obj _ as r) -> Ok r
        | _ -> Error "ledger rollup missing"
      in
      let* _ = need_int "rollup.msgs" (Json.member "msgs" r) in
      let* _ = need_int "rollup.collected" (Json.member "collected" r) in
      let* _ =
        need_int "rollup.msgs_per_cycle_milli"
          (Json.member "msgs_per_cycle_milli" r)
      in
      let* _ =
        need_int "rollup.bytes_per_cycle_milli"
          (Json.member "bytes_per_cycle_milli" r)
      in
      Ok ()
  | _ -> Error "ledger traces missing"
