(** The type lattice and abstract stack states of the static checker.

    Abstract values pair a lattice type with an optional known constant;
    constants keep the analysis precise through the idioms the emitted
    tables actually use ([3 -1 roll], [8 dict], [(r) Absolute], procedure
    literals passed to [if]). *)

type ty =
  | Int
  | Real
  | Num   (** Int or Real *)
  | Bool
  | Str
  | Name
  | Arr   (** literal array *)
  | Proc  (** executable array *)
  | Dict
  | Mem
  | Loc
  | MarkT
  | Null
  | Any

type konst =
  | KI of int
  | KS of string
  | KB of bool
  | KP of Past.proc                     (** a procedure literal in the source *)
  | KSig of cls list * ty list
      (** an opaque procedure with a known signature (consumes top-first,
          produces in push order): how debugger-provided procedures such as
          [FrameLoc] are declared without their source *)

(** Argument classes of the signature table: what a builtin's runtime
    coercion accepts.  A clash is reported only when the abstract type is
    definitely outside the class. *)
and cls =
  | CInt   (** to_int: Int or Real *)
  | CNum
  | CBool  (** strict *)
  | CStr   (** to_str: Str or Name *)
  | CDict
  | CArr   (** to_arr: any array *)
  | CProc  (** a body to execute *)
  | CMem
  | CLoc
  | CKey   (** dictionary key: Name, Str, Int or Bool *)
  | CAny

type av = { t : ty; c : konst option }

let any = { t = Any; c = None }
let of_ty t = { t; c = None }

let ty_name = function
  | Int -> "integer" | Real -> "real" | Num -> "number" | Bool -> "boolean"
  | Str -> "string" | Name -> "name" | Arr -> "array" | Proc -> "procedure"
  | Dict -> "dict" | Mem -> "memory" | Loc -> "location" | MarkT -> "mark"
  | Null -> "null" | Any -> "any"

let cls_name = function
  | CInt -> "integer" | CNum -> "number" | CBool -> "boolean" | CStr -> "string"
  | CDict -> "dict" | CArr -> "array" | CProc -> "procedure" | CMem -> "memory"
  | CLoc -> "location" | CKey -> "dict key" | CAny -> "any"

let ty_join a b =
  if a = b then a
  else
    match (a, b) with
    | Any, _ | _, Any -> Any
    | (Int | Real | Num), (Int | Real | Num) -> Num
    | _ -> Any

let konst_equal a b =
  match (a, b) with
  | KI x, KI y -> x = y
  | KS x, KS y -> String.equal x y
  | KB x, KB y -> x = y
  | KP x, KP y -> x.Past.proc_id = y.Past.proc_id
  | KSig (c1, p1), KSig (c2, p2) -> c1 = c2 && p1 = p2
  | _ -> false

let av_join a b =
  {
    t = ty_join a.t b.t;
    c =
      (match (a.c, b.c) with
      | Some x, Some y when konst_equal x y -> Some x
      | _ -> None);
  }

(** Does [ty] possibly satisfy [cls]?  [false] means a guaranteed runtime
    typecheck (or invalidaccess) — the only case the checker reports. *)
let cls_admits (c : cls) (t : ty) =
  t = Any
  ||
  match c with
  | CAny -> true
  | CInt | CNum -> ( match t with Int | Real | Num -> true | _ -> false)
  | CBool -> t = Bool
  | CStr -> ( match t with Str | Name -> true | _ -> false)
  | CDict -> t = Dict
  | CArr -> ( match t with Arr | Proc -> true | _ -> false)
  | CProc -> t = Proc
  | CMem -> t = Mem
  | CLoc -> t = Loc
  | CKey -> ( match t with Name | Str | Int | Bool | Num -> true | _ -> false)

(* --- findings ----------------------------------------------------------- *)

type kind =
  | Unknown_op      (** executed name bound nowhere *)
  | Underflow       (** guaranteed stack underflow *)
  | Type_clash      (** operand definitely outside an operator's class *)
  | Unmatched_mark  (** ], >>, cleartomark or counttomark with no mark *)
  | Branch_arity    (** if/ifelse branches with different stack effects *)
  | Dict_access     (** put into an immutable string, bad dict key, odd << >> *)
  | Range           (** statically out-of-range argument *)
  | Syntax          (** the scanner rejected the program *)

let kind_name = function
  | Unknown_op -> "unknown-op"
  | Underflow -> "underflow"
  | Type_clash -> "type-clash"
  | Unmatched_mark -> "unmatched-mark"
  | Branch_arity -> "branch-arity"
  | Dict_access -> "dict-access"
  | Range -> "rangecheck"
  | Syntax -> "syntax"

(** Every kind, in declaration order. *)
let kinds =
  [ Unknown_op; Underflow; Type_clash; Unmatched_mark; Branch_arity; Dict_access; Range;
    Syntax ]

let kind_of_name s = List.find_opt (fun k -> kind_name k = s) kinds

(** A pslint finding: the shared positioned record over pslint's kinds. *)
type finding = kind Ldb_util.Posfinding.t
