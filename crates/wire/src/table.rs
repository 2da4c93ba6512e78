//! The wire grammar, stated once per type.
//!
//! Every closed type that travels is declared as a table with one row per
//! variant (or, for a record, per field), written in wire order:
//!
//! ```text
//! Variant = tag [, "name"] [(field: Type, ..) | { field: Type, .. }],
//! ```
//!
//! The table *is* the type's declaration — doc comments and derives pass
//! through — and the macro derives from it everything that used to repeat
//! the list: the [`Wire`](crate::Wire) encoder, decoder and checking walk,
//! `as_str` / `from_str_lossy` / `Display` where rows carry a name, and an
//! `ALL` list the golden suite checks its vectors against. A tag or a
//! name is therefore written in exactly one place, and a tag used twice
//! does not compile (the decoder's `match` denies unreachable patterns).
//!
//! * `tagged!` — a union behind a tag byte (`Value`, `Target`, `EditOp`,
//!   `Overwritten`);
//! * `named!` — a union whose rows have canonical names: with tags, the
//!   tag travels (`EventKind`, `CopyMode`, `AccessRight`); without, the
//!   name does (`AttrName`, `WidgetKind`);
//! * `record!` — a struct, its fields in wire order (`UiEvent`,
//!   `InstanceInfo`, `GlobalObjectId`, the parts of a `StateDelta`).
//!
//! `protocol!` in `message.rs` is the same idea one level up: a row per
//! message kind, with the kind's name and overload class as columns.

/// Declares a tagged union: each row is `Variant = tag`, then the typed
/// fields that follow the tag byte, tuple- or struct-style. `$kind` is the
/// name a tag outside the table is refused under
/// ([`WireError::InvalidTag`](crate::WireError::InvalidTag)).
///
/// `none = tag` after the name puts `Option<Self>` on the wire as well:
/// that tag for `None`, the rows' own tags for `Some`.
macro_rules! tagged {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident: $kind:literal $(, none = $none:literal)? {$(
            $(#[$vmeta:meta])*
            $variant:ident = $tag:literal
                $(( $($tfield:ident: $tty:ty),+ ))?
                $({ $($(#[$fmeta:meta])* $sfield:ident: $sty:ty),+ $(,)? })?,
        )+}
    ) => {
        $(#[$meta])*
        $vis enum $name {$(
            $(#[$vmeta])*
            $variant $(( $($tty),+ ))? $({ $($(#[$fmeta])* $sfield: $sty),+ })?,
        )+}

        impl $name {
            /// Every row of the table: the variant and its tag byte.
            pub const ALL: &'static [(&'static str, u8)] = &[$((stringify!($variant), $tag)),+];
        }

        impl $crate::Wire for $name {
            #[inline]
            fn put(&self, buf: &mut $crate::BytesMut) {
                match self {$(
                    Self::$variant $(( $($tfield),+ ))? $({ $($sfield),+ })? => {
                        buf.put_u8($tag);
                        $($( $crate::Wire::put($tfield, buf); )+)?
                        $($( $crate::Wire::put($sfield, buf); )+)?
                    }
                )+}
            }

            #[inline]
            fn get(buf: &mut $crate::Bytes) -> Result<Self, $crate::WireError> {
                #[deny(unreachable_patterns)]
                Ok(match $crate::codec::get_u8(buf, concat!($kind, " tag"))? {
                    $($tag => Self::$variant
                        $(( $(<$tty as $crate::Wire>::get(buf)?),+ ))?
                        $({ $($sfield: <$sty as $crate::Wire>::get(buf)?),+ })?,)+
                    tag => return Err($crate::WireError::InvalidTag { kind: $kind, tag }),
                })
            }

            #[inline]
            fn skip(buf: &mut $crate::Bytes) -> Result<(), $crate::WireError> {
                match $crate::codec::get_u8(buf, concat!($kind, " tag"))? {
                    $($tag => {
                        $($( <$tty as $crate::Wire>::skip(buf)?; )+)?
                        $($( <$sty as $crate::Wire>::skip(buf)?; )+)?
                    })+
                    tag => return Err($crate::WireError::InvalidTag { kind: $kind, tag }),
                }
                Ok(())
            }
        }

        $(impl $crate::Wire for Option<$name> {
            fn put(&self, buf: &mut $crate::BytesMut) {
                match self {
                    None => buf.put_u8($none),
                    Some(some) => some.put(buf),
                }
            }

            fn get(buf: &mut $crate::Bytes) -> Result<Self, $crate::WireError> {
                if buf.first() == Some(&$none) {
                    buf.advance(1);
                    return Ok(None);
                }
                <$name as $crate::Wire>::get(buf).map(Some)
            }
        })?
    };
}

/// Declares a union whose rows have canonical names, and derives `as_str`,
/// `Display` and `ALL` besides the codec.
///
/// * `Variant = "name"` rows, then `; Custom(String)`: the name is what
///   travels (a string), and any other string is the custom variant —
///   `from_str_lossy` is derived too.
/// * `Variant = tag, "name"` rows under a `$kind` as in `tagged!`: the
///   tag travels. An optional `; Custom(String) = tag` row carries a name
///   of the sender's own.
macro_rules! named {
    (@names $name:ident { $($variant:ident = $text:literal),+ } $($custom:ident)?) => {
        impl $name {
            /// Canonical textual form: what the UI-spec language spells,
            /// what logs and `Display` print.
            pub fn as_str(&self) -> &str {
                match self {
                    $(Self::$variant => $text,)+
                    $(Self::$custom(text) => text,)?
                }
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(self.as_str())
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $($(#[$vmeta:meta])* $variant:ident = $text:literal),+ ;
            $(#[$cmeta:meta])* $custom:ident(String) $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $($(#[$vmeta])* $variant,)+
            $(#[$cmeta])* $custom(String),
        }

        impl $name {
            /// Every builtin row of the table, in declaration order.
            pub const ALL: &'static [$name] = &[$($name::$variant),+];

            /// Parses a canonical name; any other becomes the custom
            /// variant.
            pub fn from_str_lossy(s: &str) -> Self {
                match s {
                    $($text => Self::$variant,)+
                    other => Self::$custom(other.to_owned()),
                }
            }
        }

        impl $crate::Wire for $name {
            #[inline]
            fn put(&self, buf: &mut $crate::BytesMut) {
                $crate::codec::put_str(buf, self.as_str());
            }

            #[inline]
            fn get(buf: &mut $crate::Bytes) -> Result<Self, $crate::WireError> {
                Ok(Self::from_str_lossy(&<String as $crate::Wire>::get(buf)?))
            }

            #[inline]
            fn skip(buf: &mut $crate::Bytes) -> Result<(), $crate::WireError> {
                <String as $crate::Wire>::skip(buf)
            }
        }

        named!(@names $name { $($variant = $text),+ } $custom);
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident: $kind:literal {
            $($(#[$vmeta:meta])* $variant:ident = $tag:literal, $text:literal),+
            $(; $(#[$cmeta:meta])* $custom:ident(String) = $ctag:literal)? $(,)?
        }
    ) => {
        tagged! {
            $(#[$meta])*
            $vis enum $name: $kind {
                $($(#[$vmeta])* $variant = $tag,)+
                $($(#[$cmeta])* $custom = $ctag (text: String),)?
            }
        }

        named!(@names $name { $($variant = $text),+ } $($custom)?);
    };
}

/// Declares a struct that travels as its fields, in the order written.
macro_rules! record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty,)+
        }

        impl $crate::Wire for $name {
            fn put(&self, buf: &mut $crate::BytesMut) {
                $($crate::Wire::put(&self.$field, buf);)+
            }

            fn get(buf: &mut $crate::Bytes) -> Result<Self, $crate::WireError> {
                Ok($name { $($field: $crate::Wire::get(buf)?,)+ })
            }
        }
    };
}
