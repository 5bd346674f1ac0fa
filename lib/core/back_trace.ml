open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
module Tel = Dgc_telemetry

type Protocol.ext +=
  | Back_call of {
      trace : Trace_id.t;
      r : Oid.t;
      reply_site : Site_id.t;
      reply_frame : int;
      call_seq : int;
    }
  | Back_reply of {
      trace : Trace_id.t;
      reply_frame : int;
      call_seq : int;
      verdict : Verdict.t;
      participants : Site_id.Set.t;
    }
  | Back_report of { trace : Trace_id.t; outcome : Verdict.t }

let () =
  Protocol.register_ext_kind (function
    | Back_call _ -> Some "back_call"
    | Back_reply _ -> Some "back_reply"
    | Back_report _ -> Some "back_report"
    | _ -> None)

(* How each back-trace message survives the fault model (§4.6): calls
   are memoized at the receiver (duplicates re-answered), replies are
   deduplicated by call nonce, reports are idempotent broadcasts; the
   crash edge is the sender timeout for the call channel and the
   visited-marks TTL for reports. The dgc-san lint audits these. *)
let () =
  Protocol.(
    List.iter declare
      [
        {
          d_kind = "back_call";
          d_dup = Dup_memo;
          d_crash = Crash_timeout;
          d_commutes = "memoized-rpc";
        };
        {
          d_kind = "back_reply";
          d_dup = Dup_dedup;
          d_crash = Crash_timeout;
          d_commutes = "dedup-by-nonce";
        };
        {
          d_kind = "back_report";
          d_dup = Dup_idempotent;
          d_crash = Crash_ttl;
          d_commutes = "idempotent-broadcast";
        };
      ])

module Int_set = Set.Make (Int)

type parent =
  | P_initiator
  | P_local of int
  | P_remote of { site : Site_id.t; frame : int; call_seq : int }

type frame = {
  fr_id : int;
  fr_trace : Trace_id.t;
  fr_parent : parent;
  fr_ioref : Oid.t;
  fr_kind : string;  (** ["frame.local"] or ["frame.remote"] *)
  fr_started : Sim_time.t;
  mutable fr_pending : int;
  mutable fr_result : Verdict.t;
  mutable fr_participants : Site_id.Set.t;
  mutable fr_done : bool;
  mutable fr_calls : Int_set.t;
  mutable fr_span : int;  (** telemetry span id, [-1] when untraced *)
}

type site_state = {
  ss_site : Site.t;
  frames : (int, frame) Hashtbl.t;
  mutable next_frame : int;
  mutable next_call : int;
  mutable next_trace : int;
  (* iorefs this site has marked visited, per trace, for the report
     phase and the TTL cleanup *)
  visited_refs : (Trace_id.t, Oid.t list ref) Hashtbl.t;
  (* Receiver-side idempotency memo for at-least-once [Back_call]
     delivery, keyed by (trace, caller site, caller call seq) — the
     nonce the caller minted for the call. [None] while the call is
     still being traced (a duplicate is ignored; the eventual reply
     answers both copies); [Some reply] afterwards (a duplicate
     replays the cached reply verbatim). Entries are dropped when the
     trace's outcome report arrives, and the FIFO bounds the table
     when reports are lost. *)
  call_memo : (Trace_id.t * Site_id.t * int, Protocol.ext option) Hashtbl.t;
  memo_fifo : (Trace_id.t * Site_id.t * int) Queue.t;
}

type trace_stat = {
  ts_initiator : Site_id.t;
  ts_root : Oid.t;
  ts_started : Sim_time.t;
  mutable ts_msgs : int;
  mutable ts_calls : int;
  mutable ts_frames : int;
  mutable ts_participants : Site_id.Set.t;
  mutable ts_outcome : (Verdict.t * Sim_time.t) option;
}

(* A back call or its reply: the trace, sender, receiver and the
   sequence number the caller minted for the call. *)
type msg = { trace : Trace_id.t; src : Site_id.t; dst : Site_id.t; seq : int }

(* An in-flight message as the span registry keys it; a report, always
   sent by the trace's initiator, by (trace, receiver). *)
type leap = Call of msg | Reply of msg | Report of Trace_id.t * Site_id.t

type shared = {
  eng : Engine.t;
  states : site_state array;
  tstats : (Trace_id.t, trace_stat) Hashtbl.t;
  (* telemetry: root span per trace, and in-flight message spans *)
  t_spans : (Trace_id.t, int) Hashtbl.t;
  m_spans : (leap, int) Hashtbl.t;
  mutable observers : (Trace_id.t -> Verdict.t -> Site_id.Set.t -> unit) list;
  (* live totals behind the [back.in_flight] / [back.frames_held]
     gauge series; counting here keeps the samples O(1) *)
  mutable in_flight : int;
  mutable frames_held : int;
}

let create eng =
  {
    eng;
    states =
      Array.map
        (fun s ->
          {
            ss_site = s;
            frames = Hashtbl.create 16;
            next_frame = 0;
            next_call = 0;
            next_trace = 0;
            visited_refs = Hashtbl.create 8;
            call_memo = Hashtbl.create 32;
            memo_fifo = Queue.create ();
          })
        (Engine.sites eng);
    tstats = Hashtbl.create 16;
    t_spans = Hashtbl.create 16;
    m_spans = Hashtbl.create 32;
    observers = [];
    in_flight = 0;
    frames_held = 0;
  }

let state sh id = sh.states.(Site_id.to_int id)
let on_outcome sh f = sh.observers <- f :: sh.observers
let self_id st = st.ss_site.Site.id
let tables st = st.ss_site.Site.tables
let delta sh = (Engine.config sh.eng).Config.delta
let bump sh = (Engine.config sh.eng).Config.threshold_bump

(* Cap on memoized calls per site: entries normally die with the
   trace's report, but a lost report would otherwise leak them. *)
let memo_cap = 8192

let memo_add st key v =
  if not (Hashtbl.mem st.call_memo key) then begin
    Queue.push key st.memo_fifo;
    if Queue.length st.memo_fifo > memo_cap then
      Hashtbl.remove st.call_memo (Queue.pop st.memo_fifo)
  end;
  Hashtbl.replace st.call_memo key v

(* ---- telemetry ------------------------------------------------------- *)

let tkey = Trace_id.to_string

(* Stable labels for the §4.6 timers, shared with the sanitizer's
   armed-timer registry (a lost-trace verdict cites them). *)
let timer_key_call trace ~site seq =
  Printf.sprintf "back_call/%s/%d/%d" (tkey trace) (Site_id.to_int site) seq

let timer_key_ttl trace ~site =
  Printf.sprintf "visited_ttl/%s/%d" (tkey trace) (Site_id.to_int site)

(* Every back-trace action that a sink observes (DESIGN.md
   "Observability" maps each to what it produces). The protocol code
   below reports an action by one [note]; nothing else in this module
   writes a metric, series, ledger entry, journal line, span or
   [trace_stat] field. *)
type event =
  | Started of { site : Site_id.t; trace : Trace_id.t; root : Oid.t }
  | Sent of { trace : Trace_id.t; ext : Protocol.ext }
  | Frame_opened of { st : site_state; fr : frame }
  | Frame_closed of { fr : frame; verdict : Verdict.t }
  | Frame_aborted of frame  (** by the outcome report *)
  | Call_issued of { fr : frame; call : msg }
  | Call_retried of { call : msg; attempt : int }
  | Call_timed_out of { fr : frame; call : msg }
  | Call_received of msg
  | Memo_replayed of msg
  | Dup_ignored of msg
  | Reply_sent of { reply : msg; verdict : Verdict.t; from : frame option }
      (** [from] is the frame whose result it is *)
  | Reply_received of msg
  | Concluded of {
      trace : Trace_id.t;
      outcome : Verdict.t;
      parts : Site_id.Set.t;
    }
  | Report_sent of { trace : Trace_id.t; dst : Site_id.t; outcome : Verdict.t }
  | Report_retried of Trace_id.t
  | Report_received of { trace : Trace_id.t; site : Site_id.t }
  | Inref_flagged of Oid.t
  | Ttl_expired of { trace : Trace_id.t; site : Site_id.t }
  | Clean_rule of { fr : frame; site : Site_id.t }

(* Span vocabulary: [back_trace] is the root, [frame.local] and
   [frame.remote] are §4.4 activation frames, [leap.call]/[leap.reply]
   are the §4.4 messages between them, [report] is the §4.5 outcome
   fan-out, and the [timeout.*] events are §4.6's silence-means-Live
   decisions. *)

let now_s sh = Sim_time.to_seconds (Engine.now sh.eng)
let jstr s = Tel.Json.Str s
let jsite id = Tel.Json.Int (Site_id.to_int id)
let frame_span fr = if fr.fr_span >= 0 then Some fr.fr_span else None
let root_span sh trace = Hashtbl.find_opt sh.t_spans trace
let leap_span sh leap = Hashtbl.find_opt sh.m_spans leap

(* The span of the activation that issued this parent link: the local
   caller frame, the leap that carried the remote call, or the trace
   root for the initiator's first step. *)
let parent_span sh st trace parent =
  let frame_or_root st id =
    match Option.bind (Hashtbl.find_opt st.frames id) frame_span with
    | Some span -> Some span
    | None -> root_span sh trace
  in
  match parent with
  | P_initiator -> root_span sh trace
  | P_local pid -> frame_or_root st pid
  | P_remote { site; frame; call_seq } -> (
      let call = { trace; src = site; dst = self_id st; seq = call_seq } in
      match leap_span sh (Call call) with
      | Some id -> Some id
      | None -> frame_or_root (state sh site) frame)

(* The one fold from an action to every sink, each effect in the order
   the flight ring must see it (journal lines and span edges
   interleave there). The ledger and the tracer are optional; their
   trace keys, span keys and attributes are only built when attached.
   The local helpers close over nothing, so they cost no allocation. *)
let note sh ev =
  let gauge sh name n = Engine.series_set sh.eng name (float_of_int n) in
  let start_span sh tr ?parent trace ~name ~site attrs =
    Tel.Tracer.start_span tr ?parent ~trace:(tkey trace) ~name
      ~site:(Site_id.to_int site) ~at:(now_s sh) attrs
  in
  let span_event sh tr ?parent trace ~name ~site attrs =
    ignore
      (Tel.Tracer.event tr ?parent ~trace:(tkey trace) ~name
         ~site:(Site_id.to_int site) ~at:(now_s sh) attrs)
  in
  (* A message span starts at its sender and is keyed for the receiver
     (or a timeout) to close. *)
  let open_leap sh tr ?parent leap ~name attrs =
    let trace, site =
      match leap with
      | Call c | Reply c -> (c.trace, c.src)
      | Report (trace, _) -> (trace, trace.Trace_id.initiator)
    in
    Hashtbl.replace sh.m_spans leap
      (Tel.Tracer.start_span tr ?parent ~trace:(tkey trace) ~name
         ~site:(Site_id.to_int site) ~at:(now_s sh) attrs)
  in
  let close sh tr span attrs =
    Option.iter
      (fun id -> Tel.Tracer.finish_span tr id ~at:(now_s sh) attrs)
      span
  in
  let eng = sh.eng in
  let m = Engine.metrics eng in
  let ledger f =
    Option.iter (fun p -> f (Dgc_profile.Profile.ledger p)) (Engine.profile eng)
  in
  let traced f = Option.iter f (Engine.tracer eng) in
  let stat trace f = Option.iter f (Hashtbl.find_opt sh.tstats trace) in
  let module L = Dgc_profile.Ledger in
  match ev with
  | Started { site; trace; root } ->
      Hashtbl.replace sh.tstats trace
        { ts_initiator = site; ts_root = root; ts_started = Engine.now eng;
          ts_msgs = 0; ts_calls = 0; ts_frames = 0;
          ts_participants = Site_id.Set.empty; ts_outcome = None };
      Metrics.incr m "back.traces_started";
      ledger (fun l ->
          L.on_start l ~trace:(tkey trace) ~root:(Oid.to_string root)
            ~at:(now_s sh));
      sh.in_flight <- sh.in_flight + 1;
      gauge sh "back.in_flight" sh.in_flight;
      traced (fun tr ->
          Hashtbl.replace sh.t_spans trace
            (start_span sh tr trace ~name:"back_trace" ~site
               [ ("root", jstr (Oid.to_string root)) ]));
      Engine.jlog eng ~cat:"back" "%a started from outref %a" Trace_id.pp
        trace Oid.pp root
  | Sent { trace; ext } ->
      stat trace (fun s -> s.ts_msgs <- s.ts_msgs + 1);
      Metrics.incr m "back.msgs";
      ledger (fun l ->
          let payload = Protocol.Ext ext in
          L.on_msg l ~trace:(tkey trace) ~kind:(Protocol.kind payload)
            ~bytes:(Protocol.approx_bytes payload))
  | Frame_opened { st; fr } ->
      sh.frames_held <- sh.frames_held + 1;
      gauge sh "back.frames_held" sh.frames_held;
      stat fr.fr_trace (fun s -> s.ts_frames <- s.ts_frames + 1);
      Engine.profile_work eng "frames" 1;
      ledger (fun l -> L.on_frame l ~trace:(tkey fr.fr_trace));
      traced (fun tr ->
          let attrs =
            ("ref", jstr (Oid.to_string fr.fr_ioref))
            ::
            (match fr.fr_parent with
            | P_remote { site; _ } -> [ ("caller_site", jsite site) ]
            | P_initiator | P_local _ -> [])
          in
          fr.fr_span <-
            start_span sh tr
              ?parent:(parent_span sh st fr.fr_trace fr.fr_parent)
              fr.fr_trace ~name:fr.fr_kind ~site:(self_id st) attrs)
  | Frame_closed { fr; verdict } ->
      sh.frames_held <- sh.frames_held - 1;
      gauge sh "back.frames_held" sh.frames_held;
      traced (fun tr ->
          close sh tr (frame_span fr)
            [ ("verdict", jstr (Verdict.to_string verdict)) ])
  | Frame_aborted fr ->
      sh.frames_held <- sh.frames_held - 1;
      gauge sh "back.frames_held" sh.frames_held;
      traced (fun tr ->
          close sh tr (frame_span fr) [ ("aborted", Tel.Json.Bool true) ])
  | Call_issued { fr; call } ->
      stat call.trace (fun s -> s.ts_calls <- s.ts_calls + 1);
      ledger (fun l -> L.on_call l ~trace:(tkey call.trace));
      traced (fun tr ->
          open_leap sh tr ?parent:(frame_span fr) (Call call) ~name:"leap.call"
            [
              ("src", jsite call.src);
              ("dst", jsite call.dst);
              ("ref", jstr (Oid.to_string fr.fr_ioref));
            ])
  | Call_retried { call; attempt } ->
      Metrics.incr m "retry.back_call";
      Engine.series_incr eng "retry.back_call";
      ledger (fun l -> L.on_retry l ~trace:(tkey call.trace));
      Engine.jlog eng ~level:Journal.Debug ~cat:"retry"
        "%a call %d to %a unanswered: retry %d/%d" Trace_id.pp call.trace
        call.seq Site_id.pp call.dst attempt
        (Engine.config eng).Config.retry_limit
  | Call_timed_out { fr; call } ->
      if (Engine.config eng).Config.retry_limit > 0 then
        Metrics.incr m "retry.exhausted";
      Metrics.incr m "back.call_timeout";
      ledger (fun l -> L.on_timeout l ~trace:(tkey call.trace));
      traced (fun tr ->
          close sh tr (leap_span sh (Call call))
            [ ("timeout", Tel.Json.Bool true) ];
          span_event sh tr ?parent:(frame_span fr) call.trace
            ~name:"timeout.call" ~site:call.src
            [ ("dst", jsite call.dst) ])
  | Call_received call ->
      traced (fun tr -> close sh tr (leap_span sh (Call call)) [])
  | Memo_replayed call ->
      Metrics.incr m "back.call_replayed";
      ledger (fun l -> L.on_memo_hit l ~trace:(tkey call.trace));
      Engine.jlog eng ~level:Journal.Debug ~cat:"back"
        "%a duplicate call %d from %a: replaying cached reply" Trace_id.pp
        call.trace call.seq Site_id.pp call.src
  | Dup_ignored call ->
      Metrics.incr m "back.dup_call_ignored";
      ledger (fun l -> L.on_memo_hit l ~trace:(tkey call.trace));
      Engine.jlog eng ~level:Journal.Debug ~cat:"back"
        "%a duplicate call %d from %a ignored (in progress)" Trace_id.pp
        call.trace call.seq Site_id.pp call.src
  | Reply_sent { reply; verdict; from } ->
      traced (fun tr ->
          let parent =
            match from with
            | Some fr -> frame_span fr
            | None ->
                leap_span sh
                  (Call { reply with src = reply.dst; dst = reply.src })
          in
          open_leap sh tr ?parent (Reply reply) ~name:"leap.reply"
            [
              ("src", jsite reply.src);
              ("dst", jsite reply.dst);
              ("verdict", jstr (Verdict.to_string verdict));
            ])
  | Reply_received reply ->
      traced (fun tr ->
          close sh tr (leap_span sh (Reply reply)) [])
  | Concluded { trace; outcome; parts } ->
      Engine.jlog eng ~cat:"back" "%a concluded %a (%d participants)"
        Trace_id.pp trace Verdict.pp outcome (Site_id.Set.cardinal parts);
      Metrics.incr m
        (match outcome with
        | Verdict.Garbage -> "back.outcome_garbage"
        | Verdict.Live -> "back.outcome_live");
      ledger (fun l ->
          L.on_conclude l ~trace:(tkey trace)
            ~outcome:(String.lowercase_ascii (Verdict.to_string outcome))
            ~at:(now_s sh));
      stat trace (fun s ->
          if s.ts_outcome = None then begin
            sh.in_flight <- sh.in_flight - 1;
            gauge sh "back.in_flight" sh.in_flight
          end;
          s.ts_outcome <- Some (outcome, Engine.now eng);
          s.ts_participants <- parts;
          let lat_ms =
            1000.
            *. Sim_time.to_seconds (Sim_time.sub (Engine.now eng) s.ts_started)
          in
          let initiator = Engine.site eng s.ts_initiator in
          Metrics.hist_observe m "back.latency_ms" lat_ms;
          Metrics.hist_observe m
            (Site.metric_label initiator "back.latency_ms")
            lat_ms;
          Metrics.hist_observe m "back.frames_per_trace"
            (float_of_int s.ts_frames);
          Metrics.hist_observe m "back.msgs_per_trace" (float_of_int s.ts_msgs));
      traced (fun tr ->
          close sh tr (root_span sh trace)
            [
              ("outcome", jstr (Verdict.to_string outcome));
              ("participants", Tel.Json.Int (Site_id.Set.cardinal parts));
            ])
  | Report_sent { trace; dst; outcome } ->
      traced (fun tr ->
          open_leap sh tr ?parent:(root_span sh trace) (Report (trace, dst))
            ~name:"report"
            [
              ("src", jsite trace.Trace_id.initiator);
              ("dst", jsite dst);
              ("outcome", jstr (Verdict.to_string outcome));
            ]);
      ledger (fun l -> L.on_report l ~trace:(tkey trace))
  | Report_retried trace ->
      Metrics.incr m "retry.back_report";
      Engine.series_incr eng "retry.back_report";
      ledger (fun l -> L.on_retry l ~trace:(tkey trace))
  | Report_received { trace; site } ->
      traced (fun tr ->
          close sh tr (leap_span sh (Report (trace, site))) [])
  | Inref_flagged r ->
      Metrics.incr m "back.inrefs_flagged";
      Engine.jlog eng ~cat:"back" "inref %a flagged garbage" Oid.pp r
  | Ttl_expired { trace; site } ->
      Metrics.incr m "back.visited_ttl_expired";
      ledger (fun l -> L.on_timeout l ~trace:(tkey trace));
      traced (fun tr ->
          span_event sh tr ?parent:(root_span sh trace) trace
            ~name:"timeout.visited_ttl" ~site [])
  | Clean_rule { fr; site } ->
      Metrics.incr m "back.clean_rule_fired";
      traced (fun tr ->
          span_event sh tr ?parent:(frame_span fr) fr.fr_trace
            ~name:"clean_rule" ~site
            [ ("ref", jstr (Oid.to_string fr.fr_ioref)) ])

(* ---- the protocol ---------------------------------------------------- *)

let send_back sh ~src ~dst trace ext =
  note sh (Sent { trace; ext });
  Engine.send sh.eng ~src ~dst (Protocol.Ext ext)

let new_frame sh st trace parent ioref ~kind =
  let fr =
    {
      fr_id = st.next_frame;
      fr_trace = trace;
      fr_parent = parent;
      fr_ioref = ioref;
      fr_kind = kind;
      fr_started = Engine.now sh.eng;
      fr_pending = 0;
      fr_result = Verdict.Garbage;
      fr_participants = Site_id.Set.empty;
      fr_done = false;
      fr_calls = Int_set.empty;
      fr_span = -1;
    }
  in
  st.next_frame <- st.next_frame + 1;
  Hashtbl.add st.frames fr.fr_id fr;
  note sh (Frame_opened { st; fr });
  fr

(* The whole message-driven machine is one recursive knot: finishing a
   frame feeds its parent, which may finish in turn, up to the
   initiator's report phase. *)
let rec finish sh st fr v =
  if not fr.fr_done then begin
    fr.fr_done <- true;
    Hashtbl.remove st.frames fr.fr_id;
    note sh (Frame_closed { fr; verdict = v });
    answer sh st fr.fr_trace fr.fr_parent ~from:(Some fr) v
      (Site_id.Set.add (self_id st) fr.fr_participants)
  end

and child_done sh st fr v parts =
  if not fr.fr_done then begin
    fr.fr_participants <- Site_id.Set.union fr.fr_participants parts;
    fr.fr_result <- Verdict.merge fr.fr_result v;
    fr.fr_pending <- fr.fr_pending - 1;
    match v with
    | Verdict.Live ->
        (* Live short-circuits the frame (§4.4's early return). *)
        finish sh st fr Verdict.Live
    | Verdict.Garbage ->
        if fr.fr_pending <= 0 then finish sh st fr fr.fr_result
  end

(* Hand a verdict to whoever awaits it: the local caller frame, the
   remote caller (a reply, memoized against duplicates of its call),
   or the initiator's report phase. [from] is the frame whose result
   it is, [None] for a step that answered without opening one. *)
and answer sh st trace parent ~from v parts =
  match parent with
  | P_local pid ->
      Option.iter
        (fun p -> child_done sh st p v parts)
        (Hashtbl.find_opt st.frames pid)
  | P_remote { site; frame; call_seq } ->
      note sh
        (Reply_sent
           {
             reply = { trace; src = self_id st; dst = site; seq = call_seq };
             verdict = v;
             from;
           });
      let reply =
        Back_reply
          { trace; reply_frame = frame; call_seq; verdict = v; participants = parts }
      in
      memo_add st (trace, site, call_seq) (Some reply);
      send_back sh ~src:(self_id st) ~dst:site trace reply
  | P_initiator -> conclude sh st trace v parts

and return_to sh st trace parent v =
  answer sh st trace parent ~from:None v (Site_id.Set.singleton (self_id st))

and conclude sh st trace outcome parts =
  note sh (Concluded { trace; outcome; parts });
  List.iter (fun f -> f trace outcome parts) sh.observers;
  let me = self_id st in
  let report p =
    send_back sh ~src:me ~dst:p trace (Back_report { trace; outcome })
  in
  (* Report phase (§4.5): inform every participant. *)
  Site_id.Set.iter
    (fun p ->
      if not (Site_id.equal p me) then begin
        note sh (Report_sent { trace; dst = p; outcome });
        report p
      end)
    parts;
  (let cfg = Engine.config sh.eng in
   if cfg.Config.retry_limit > 0 then begin
     (* Blind redundancy for the §4.5 fan-out: the protocol has no
        report acks, but [apply_report] is idempotent, so re-sending
        each report on the retry schedule means a dropped copy no
        longer strands participants until the visited TTL. *)
     let base = Sim_time.to_seconds cfg.Config.back_call_timeout in
     Site_id.Set.iter
       (fun p ->
         if not (Site_id.equal p me) then
           for k = 1 to cfg.Config.retry_limit do
             let delay =
               Sim_time.of_seconds
                 (base *. (cfg.Config.retry_backoff ** float_of_int (k - 1)))
             in
             Engine.schedule sh.eng ~delay (fun () ->
                 note sh (Report_retried trace);
                 report p)
           done)
       parts
   end);
  apply_report sh st trace outcome

and apply_report sh st trace outcome =
  (match Hashtbl.find_opt st.visited_refs trace with
  | None -> ()
  | Some l ->
      Hashtbl.remove st.visited_refs trace;
      List.iter
        (fun r ->
          if Site_id.equal (Oid.site r) (self_id st) then begin
            match Tables.find_inref (tables st) r with
            | None -> ()
            | Some ir ->
                ir.Ioref.ir_visited <-
                  Trace_id.Set.remove trace ir.Ioref.ir_visited;
                if Verdict.equal outcome Verdict.Garbage then begin
                  ir.Ioref.ir_flagged <- true;
                  note sh (Inref_flagged r)
                end
          end
          else
            match Tables.find_outref (tables st) r with
            | None -> ()
            | Some o ->
                o.Ioref.or_visited <-
                  Trace_id.Set.remove trace o.Ioref.or_visited)
        !l);
  (* Drop any leftover frames of this trace at this site. *)
  let leftovers =
    Hashtbl.fold
      (fun _ fr acc -> if Trace_id.equal fr.fr_trace trace then fr :: acc else acc)
      st.frames []
  in
  List.iter
    (fun fr ->
      fr.fr_done <- true;
      Hashtbl.remove st.frames fr.fr_id;
      note sh (Frame_aborted fr))
    leftovers;
  (* The trace is settled at this site: forget its call memo (any
     further duplicates are stale and will be re-answered from the
     tables, which now reflect the outcome). *)
  let stale_memo =
    Hashtbl.fold
      (fun ((tr, _, _) as k) _ acc ->
        if Trace_id.equal tr trace then k :: acc else acc)
      st.call_memo []
  in
  List.iter (Hashtbl.remove st.call_memo) stale_memo

and record_visit sh st trace r =
  match Hashtbl.find_opt st.visited_refs trace with
  | Some l -> l := r :: !l
  | None ->
      let l = ref [ r ] in
      Hashtbl.add st.visited_refs trace l;
      let cfg = Engine.config sh.eng in
      let ttl = cfg.Config.visited_ttl in
      (* With retries enabled the §4.6 give-up can land well after the
         configured TTL; stretch the TTL past the whole backoff
         schedule so a retried call can still settle the trace instead
         of being aborted under it. Single-shot runs keep the exact
         configured TTL (and their event stream). *)
      let ttl =
        if cfg.Config.retry_limit <= 0 then ttl
        else begin
          let base = Sim_time.to_seconds cfg.Config.back_call_timeout in
          let span = ref base in
          for k = 0 to cfg.Config.retry_limit do
            span := !span +. (base *. (cfg.Config.retry_backoff ** float_of_int k))
          done;
          if Sim_time.(ttl < Sim_time.of_seconds !span) then
            Sim_time.of_seconds !span
          else ttl
        end
      in
      if not cfg.Config.enable_timeouts then ()
      else
      Engine.schedule sh.eng
        ~label:(fun () -> (self_id st, timer_key_ttl trace ~site:(self_id st)))
        ~delay:ttl (fun () ->
          if Hashtbl.mem st.visited_refs trace then begin
            (* Never heard the outcome: assume Live (§4.6). *)
            note sh (Ttl_expired { trace; site = self_id st });
            apply_report sh st trace Verdict.Live
          end)

(* BackStepLocal (§4.4): [r] names an outref of this site. *)
and step_local sh st trace r parent =
  match Tables.find_outref (tables st) r with
  | None ->
      (* ioref deleted by the collector: garbage. *)
      return_to sh st trace parent Verdict.Garbage
  | Some o ->
      if Ioref.outref_clean o then return_to sh st trace parent Verdict.Live
      else if Trace_id.Set.mem trace o.Ioref.or_visited then
        return_to sh st trace parent Verdict.Garbage
      else begin
        o.Ioref.or_visited <- Trace_id.Set.add trace o.Ioref.or_visited;
        o.Ioref.or_back_threshold <- o.Ioref.or_back_threshold + bump sh;
        record_visit sh st trace r;
        let fr = new_frame sh st trace parent r ~kind:"frame.local" in
        match o.Ioref.or_inset with
        | [] -> finish sh st fr Verdict.Garbage
        | inset ->
            fr.fr_pending <- List.length inset;
            List.iter
              (fun i -> step_remote sh st trace i (P_local fr.fr_id))
              inset
      end

(* BackStepRemote (§4.4): [i] names an inref of this site; branch
   calls go to every source site in parallel. *)
and step_remote sh st trace i parent =
  match Tables.find_inref (tables st) i with
  | None -> return_to sh st trace parent Verdict.Garbage
  | Some ir ->
      if ir.Ioref.ir_flagged then
        (* Already confirmed garbage by an earlier trace. *)
        return_to sh st trace parent Verdict.Garbage
      else if Ioref.inref_clean ~delta:(delta sh) ir then
        return_to sh st trace parent Verdict.Live
      else if Trace_id.Set.mem trace ir.Ioref.ir_visited then
        return_to sh st trace parent Verdict.Garbage
      else begin
        ir.Ioref.ir_visited <- Trace_id.Set.add trace ir.Ioref.ir_visited;
        ir.Ioref.ir_back_threshold <- ir.Ioref.ir_back_threshold + bump sh;
        record_visit sh st trace i;
        let fr = new_frame sh st trace parent i ~kind:"frame.remote" in
        match Ioref.source_sites ir with
        | [] -> finish sh st fr Verdict.Garbage
        | sources ->
            fr.fr_pending <- List.length sources;
            let me = self_id st in
            List.iter
              (fun q ->
                let seq = st.next_call in
                st.next_call <- seq + 1;
                fr.fr_calls <- Int_set.add seq fr.fr_calls;
                let call = { trace; src = me; dst = q; seq } in
                note sh (Call_issued { fr; call });
                let send_call () =
                  send_back sh ~src:me ~dst:q trace
                    (Back_call
                       {
                         trace;
                         r = i;
                         reply_site = me;
                         reply_frame = fr.fr_id;
                         call_seq = seq;
                       })
                in
                let cfg = Engine.config sh.eng in
                let base = Sim_time.to_seconds cfg.Config.back_call_timeout in
                (* Attempt [k] waits timeout·backoff^k, then either
                   re-sends the call (k < retry_limit — the receiver
                   memo makes duplicates harmless) or finally assumes
                   Live (§4.6). [retry_limit = 0] is the paper's
                   single-shot timeout, event-for-event. *)
                let rec arm attempt =
                  let delay =
                    if attempt = 0 then cfg.Config.back_call_timeout
                    else
                      Sim_time.of_seconds
                        (base
                        *. (cfg.Config.retry_backoff ** float_of_int attempt))
                  in
                  Engine.schedule sh.eng
                    ~label:(fun () -> (me, timer_key_call trace ~site:me seq))
                    ~delay (fun () ->
                      match Hashtbl.find_opt st.frames fr.fr_id with
                      | Some fr'
                        when (not fr'.fr_done) && Int_set.mem seq fr'.fr_calls
                        ->
                          if attempt < cfg.Config.retry_limit then begin
                            note sh (Call_retried { call; attempt = attempt + 1 });
                            send_call ();
                            arm (attempt + 1)
                          end
                          else begin
                            fr'.fr_calls <- Int_set.remove seq fr'.fr_calls;
                            (* No reply: assume Live (§4.6). *)
                            note sh (Call_timed_out { fr = fr'; call });
                            child_done sh st fr' Verdict.Live
                              Site_id.Set.empty
                          end
                      | _ -> ())
                in
                send_call ();
                (* The [enable_timeouts] ablation plants the lost-trace
                   defect: the call goes out but silence is never read
                   as Live, so a crashed callee strands this frame (and
                   the memo entries behind it) forever. *)
                if cfg.Config.enable_timeouts then arm 0)
              sources
      end

let start sh site_id outref =
  let st = state sh site_id in
  match Tables.find_outref (tables st) outref with
  | Some o when not (Ioref.outref_clean o) ->
      let trace = Trace_id.make ~initiator:site_id ~seq:st.next_trace in
      st.next_trace <- st.next_trace + 1;
      note sh (Started { site = site_id; trace; root = outref });
      step_local sh st trace outref P_initiator;
      Some trace
  | Some _ | None -> None

let handle_ext sh site_id ~src ext =
  let st = state sh site_id in
  match ext with
  | Back_call { trace; r; reply_site; reply_frame; call_seq } ->
      let call = { trace; src = reply_site; dst = site_id; seq = call_seq } in
      note sh (Call_received call);
      let key = (trace, reply_site, call_seq) in
      (match Hashtbl.find_opt st.call_memo key with
      | Some (Some reply) ->
          (* Duplicate of a call already answered: replay the cached
             reply verbatim (at-least-once delivery, exactly-once
             tracing). *)
          note sh (Memo_replayed call);
          send_back sh ~src:site_id ~dst:reply_site trace reply
      | Some None ->
          (* Duplicate of a call still being traced: the eventual
             reply answers both copies. *)
          note sh (Dup_ignored call)
      | None ->
          memo_add st key None;
          step_local sh st trace r
            (P_remote { site = reply_site; frame = reply_frame; call_seq }));
      true
  | Back_reply { trace; reply_frame; call_seq; verdict; participants } ->
      note sh (Reply_received { trace; src; dst = site_id; seq = call_seq });
      (match Hashtbl.find_opt st.frames reply_frame with
      | Some fr when Int_set.mem call_seq fr.fr_calls ->
          fr.fr_calls <- Int_set.remove call_seq fr.fr_calls;
          child_done sh st fr verdict participants
      | Some _ | None -> ());
      true
  | Back_report { trace; outcome } ->
      note sh (Report_received { trace; site = site_id });
      apply_report sh st trace outcome;
      true
  | _ -> false

let on_cleaned sh site_id r =
  if (Engine.config sh.eng).Config.enable_clean_rule then begin
    let st = state sh site_id in
    let hits =
      Hashtbl.fold
        (fun _ fr acc ->
          if (not fr.fr_done) && Oid.equal fr.fr_ioref r then fr :: acc
          else acc)
        st.frames []
    in
    List.iter
      (fun fr ->
        note sh (Clean_rule { fr; site = site_id });
        finish sh st fr Verdict.Live)
      hits
  end

let active_frames sh site_id = Hashtbl.length (state sh site_id).frames

type parent_info =
  | Pi_initiator
  | Pi_local of int
  | Pi_remote of { site : Site_id.t; frame : int; call_seq : int }

type frame_info = {
  fi_id : int;
  fi_trace : Trace_id.t;
  fi_ioref : Oid.t;
  fi_kind : string;
  fi_pending : int;
  fi_started : Sim_time.t;
  fi_span : int option;
  fi_parent : parent_info;
  fi_calls : int list;
}

let open_frames sh site_id =
  Hashtbl.fold
    (fun _ fr acc ->
      if fr.fr_done then acc
      else
        {
          fi_id = fr.fr_id;
          fi_trace = fr.fr_trace;
          fi_ioref = fr.fr_ioref;
          fi_kind = fr.fr_kind;
          fi_pending = fr.fr_pending;
          fi_started = fr.fr_started;
          fi_span = (if fr.fr_span >= 0 then Some fr.fr_span else None);
          fi_parent =
            (match fr.fr_parent with
            | P_initiator -> Pi_initiator
            | P_local id -> Pi_local id
            | P_remote { site; frame; call_seq } ->
                Pi_remote { site; frame; call_seq });
          fi_calls = Int_set.elements fr.fr_calls;
        }
        :: acc)
    (state sh site_id).frames []
  |> List.sort (fun a b -> Int.compare a.fi_id b.fi_id)

type residue = { rs_frames : int; rs_memo : int; rs_visited : int }

let residue sh =
  let acc : (Trace_id.t, (Site_id.t * residue) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  Array.iter
    (fun st ->
      let per : (Trace_id.t, residue) Hashtbl.t = Hashtbl.create 8 in
      let bump tr f =
        let r =
          Option.value
            (Hashtbl.find_opt per tr)
            ~default:{ rs_frames = 0; rs_memo = 0; rs_visited = 0 }
        in
        Hashtbl.replace per tr (f r)
      in
      Hashtbl.iter
        (fun _ fr ->
          if not fr.fr_done then
            bump fr.fr_trace (fun r -> { r with rs_frames = r.rs_frames + 1 }))
        st.frames;
      Hashtbl.iter
        (fun (tr, _, _) _ ->
          bump tr (fun r -> { r with rs_memo = r.rs_memo + 1 }))
        st.call_memo;
      Hashtbl.iter
        (fun tr l ->
          bump tr (fun r ->
              { r with rs_visited = r.rs_visited + List.length !l }))
        st.visited_refs;
      Hashtbl.iter
        (fun tr r ->
          match Hashtbl.find_opt acc tr with
          | Some l -> l := (self_id st, r) :: !l
          | None -> Hashtbl.add acc tr (ref [ (self_id st, r) ]))
        per)
    sh.states;
  Hashtbl.fold
    (fun tr l out ->
      ( tr,
        List.sort (fun (a, _) (b, _) -> Site_id.compare a b) !l )
      :: out)
    acc []
  |> List.sort (fun (a, _) (b, _) -> Trace_id.compare a b)

let stats sh =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) sh.tstats []
  |> List.sort (fun (a, _) (b, _) -> Trace_id.compare a b)

(* Fixed size model shared with [Tables.approx_bytes]: 8-byte words,
   per-record constants for frames and memo entries, list cells for
   visited refs. Covers the machinery a lost report would leak. *)
let approx_bytes sh =
  let word = 8 in
  let n = ref 0 in
  Array.iter
    (fun st ->
      n := !n + (word * 18 * Hashtbl.length st.frames);
      n := !n + (word * 6 * Hashtbl.length st.call_memo);
      Hashtbl.iter
        (fun _ l -> n := !n + (word * 3 * List.length !l))
        st.visited_refs)
    sh.states;
  !n

let find_stat sh trace = Hashtbl.find_opt sh.tstats trace
