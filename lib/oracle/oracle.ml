open Dgc_prelude
open Dgc_heap
open Dgc_rts

exception Safety_violation of string

let global_roots eng =
  let sites = Engine.sites eng in
  let per_site =
    Array.to_list sites
    |> List.concat_map (fun s ->
           Heap.persistent_roots s.Site.heap
           @ Engine.app_roots eng s.Site.id)
  in
  per_site @ Engine.in_flight_refs eng

let live_set eng =
  let heap_of r = (Engine.site eng (Oid.site r)).Site.heap in
  let visited = ref Oid.Set.empty in
  let queue = Queue.create () in
  let visit r =
    if (not (Oid.Set.mem r !visited)) && Heap.mem (heap_of r) r then begin
      visited := Oid.Set.add r !visited;
      Queue.add r queue
    end
  in
  List.iter visit (global_roots eng);
  while not (Queue.is_empty queue) do
    let r = Queue.pop queue in
    List.iter visit (Heap.fields (heap_of r) r)
  done;
  !visited

let all_objects eng =
  Array.fold_left
    (fun acc s ->
      Heap.fold s.Site.heap ~init:acc ~f:(fun acc o ->
          Oid.Set.add o.Heap.oid acc))
    Oid.Set.empty (Engine.sites eng)

let garbage_set eng = Oid.Set.diff (all_objects eng) (live_set eng)
let garbage_count eng = Oid.Set.cardinal (garbage_set eng)

let cyclic_garbage_sites eng =
  Oid.Set.fold
    (fun r acc -> Site_id.Set.add (Oid.site r) acc)
    (garbage_set eng) Site_id.Set.empty

let check_would_free eng site_id idxs =
  match idxs with
  | [] -> ()
  | _ ->
      let live = live_set eng in
      List.iter
        (fun i ->
          let oid = Oid.make ~site:site_id ~index:i in
          if Oid.Set.mem oid live then
            raise
              (Safety_violation
                 (Format.asprintf "about to free live object %a" Oid.pp oid)))
        idxs

let assert_no_garbage eng =
  let g = garbage_set eng in
  if not (Oid.Set.is_empty g) then
    raise
      (Safety_violation
         (Format.asprintf "uncollected garbage: %a"
            (Format.pp_print_list ~pp_sep:Format.pp_print_space Oid.pp)
            (Oid.Set.elements g)))

let table_violations eng =
  let sites = Engine.sites eng in
  let problems = ref [] in
  let note fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  Array.iter
    (fun s ->
      let sid = s.Site.id in
      (* Cross-site heap edges are fully registered. *)
      Heap.iter s.Site.heap (fun o ->
          List.iter
            (fun r ->
              if not (Site_id.equal (Oid.site r) sid) then begin
                (match Tables.find_outref s.Site.tables r with
                | Some _ -> ()
                | None ->
                    note "%a: field %a -> %a lacks an outref" Site_id.pp sid
                      Oid.pp o.Heap.oid Oid.pp r);
                let owner = Engine.site eng (Oid.site r) in
                match Tables.find_inref owner.Site.tables r with
                | Some ir when Ioref.find_source ir sid <> None -> ()
                | Some _ ->
                    note "%a: inref %a misses source %a" Site_id.pp
                      owner.Site.id Oid.pp r Site_id.pp sid
                | None ->
                    note "%a: missing inref %a (field held by %a)" Site_id.pp
                      owner.Site.id Oid.pp r Site_id.pp sid
              end)
            o.Heap.fields);
      (* Outrefs are backed by source entries at the owner. *)
      Tables.iter_outrefs s.Site.tables (fun o ->
          let r = o.Ioref.or_target in
          let owner = Engine.site eng (Oid.site r) in
          match Tables.find_inref owner.Site.tables r with
          | Some ir when Ioref.find_source ir sid <> None -> ()
          | Some _ | None ->
              note "%a: outref %a not registered at owner" Site_id.pp sid
                Oid.pp r);
      (* Inref sources actually hold outrefs. *)
      Tables.iter_inrefs s.Site.tables (fun ir ->
          List.iter
            (fun src ->
              let holder = Engine.site eng src in
              match Tables.find_outref holder.Site.tables ir.Ioref.ir_target with
              | Some _ -> ()
              | None ->
                  note "%a: inref %a lists source %a which has no outref"
                    Site_id.pp sid Oid.pp ir.Ioref.ir_target Site_id.pp src)
            (Ioref.source_sites ir)))
    sites;
  List.rev !problems
