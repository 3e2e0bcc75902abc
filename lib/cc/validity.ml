(** Per-stopping-point variable validity, proven by the compiler and
    shipped to the debugger through the symbol table — the paper's "get
    help from the compiler" applied to a question every debugger fudges:
    {e is the value in this variable's slot meaningful right now?}

    For every tracked local (the [Dataflow.tracked] universe: named
    scalars that never escape) we compute, at every stopping point, one of
    three facts:

    - [Uninit] — some path reaches this stop without writing the
      variable, so the slot may hold garbage;
    - [Valid]  — every path to this stop has written it;
    - [Dead]   — definitely assigned, but no path from this stop reads it
      again, so the slot is free to be reused (and a reverse debugger may
      not bother restoring it).

    Facts are compressed into per-variable ranges [(lo, hi, fact)] over
    the function's stop indexes and stored on the symbol-table entry
    ([Sym.t.validity]); both emitters serialize them ([Psemit] as a
    [/validity] array on the symbol's dict, [Stabsemit] as [n_valid]
    records), [Symtab.validity_at] reads them back, and [Dbgcheck]
    recomputes the analysis independently to cross-check what was
    emitted.

    Soundness bias: untracked variables get {e no} ranges and are treated
    as printable everywhere; an unreachable stopping point is labeled
    [Uninit] (we never claim [Valid] on evidence the flow graph cannot
    support).  The dynamic differential in [test_validity] checks the
    bias holds on real traces: nothing the table calls [Valid] may ever
    be observed unwritten. *)

type fact = Uninit | Valid | Dead

let fact_code = function Uninit -> 0 | Valid -> 1 | Dead -> 2

let fact_of_code = function
  | 0 -> Some Uninit
  | 1 -> Some Valid
  | 2 -> Some Dead
  | _ -> None

let fact_name = function Uninit -> "uninit" | Valid -> "valid" | Dead -> "dead"

(** Compute validity ranges for one function: each tracked local paired
    with its compressed [(lo, hi, fact-code)] ranges covering stop
    indexes [0, nstops).  Pure — [annotate] is the writer. *)
let compute (fi : Sema.func_ir) : (Sym.t * (int * int * int) list) list =
  match fi.Sema.fi_debug with
  | None -> []
  | Some fd ->
      let cfg = Dataflow.cfg_of_body fi.Sema.fi_body in
      let stmts = cfg.Dataflow.stmts in
      let n = Array.length stmts in
      let vars = Dataflow.tracked fi.Sema.fi_body fd in
      let nstops =
        1
        + List.fold_left (fun m (sp : Sym.stop_point) -> max m sp.Sym.sp_id) (-1)
            fd.Sym.fd_stops
      in
      if n = 0 || vars = [] || nstops = 0 then []
      else begin
        let var_index = Hashtbl.create 16 in
        List.iteri (fun i (v, _) -> Hashtbl.replace var_index v i) vars;
        let idx_of v = Hashtbl.find_opt var_index v in
        let all_mask = (1 lsl List.length vars) - 1 in
        let in_state =
          Dataflow.solve_forward cfg Dataflow.may_mask ~entry:all_mask
            ~transfer:(fun _ stmt s -> Dataflow.uninit_transfer ~idx_of s stmt)
        in
        let live_in = Dataflow.liveness cfg ~idx_of in
        (* statement index of each stopping point, keyed by stop index *)
        let stop_stmt = Array.make nstops None in
        Array.iteri
          (fun i s ->
            match s with
            | Ir.Sstop (id, _) when id >= 0 && id < nstops -> stop_stmt.(id) <- Some i
            | _ -> ())
          stmts;
        let fact_at bit sid =
          match stop_stmt.(sid) with
          | None -> Uninit (* stop without code: claim nothing *)
          | Some i -> (
              match in_state.(i) with
              | None -> Uninit (* unreachable: never claim Valid *)
              | Some mask ->
                  if mask land (1 lsl bit) <> 0 then Uninit
                  else if live_in.(i) land (1 lsl bit) = 0 then Dead
                  else Valid)
        in
        List.mapi
          (fun bit (_, sym) ->
            let ranges = ref [] in
            let lo = ref 0 and cur = ref (fact_at bit 0) in
            for sid = 1 to nstops - 1 do
              let f = fact_at bit sid in
              if f <> !cur then begin
                ranges := (!lo, sid - 1, fact_code !cur) :: !ranges;
                lo := sid;
                cur := f
              end
            done;
            ranges := (!lo, nstops - 1, fact_code !cur) :: !ranges;
            (sym, List.rev !ranges))
          vars
      end

(** Write the computed ranges onto the symbol-table entries, to be picked
    up by both emitters. *)
let annotate (fi : Sema.func_ir) : unit =
  List.iter (fun ((s : Sym.t), ranges) -> s.Sym.validity <- ranges) (compute fi)

let annotate_unit (ui : Sema.unit_ir) : unit =
  List.iter annotate ui.Sema.ui_funcs
