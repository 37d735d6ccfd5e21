//! Content-addressed cache keys.
//!
//! The admission service caches whole answers across a fleet of
//! near-duplicate queries. Cache keys must be **canonical**: two
//! questions that would produce the same answer must map to the same
//! key, and any observable difference in the inputs must change it.
//! The key is the canonical JSON rendering of the complete question
//! (the vendored serializer writes struct fields in declaration order
//! and maps in insertion order, so equal values always render to equal
//! bytes), prefixed with a schema tag so keys from different kinds (or
//! future layout revisions) can never collide.
//!
//! Keys are compared by full string equality — content addressing
//! without a hash function, so there are no collision classes to
//! reason about. Deriving `Hash` on the task/platform types would give
//! a 64-bit digest instead; at fleet scale (`≥100k` queries) a silent
//! collision would cross-wire two admission verdicts, which is exactly
//! the kind of failure a verifier must not have.

use serde::Serialize;

/// Version tag baked into every key produced by [`canonical_key`].
/// Bump when the serialized layout of any keyed type changes so stale
/// persisted keys can never alias fresh ones.
pub const KEY_SCHEMA: &str = "rtmdm-key/1";

/// Canonical key of an arbitrary serializable value, namespaced by
/// `kind` (e.g. `"query"`). The rendering is the vendored serializer's
/// canonical JSON; equal values produce equal keys and distinct kinds
/// can never collide (the kind is length prefixed into the header, so
/// no concatenation ambiguity exists).
pub fn canonical_key<T: Serialize>(kind: &str, value: &T) -> String {
    let body = serde_json::to_string(value).expect("canonical key serialization is infallible");
    format!("{KEY_SCHEMA}:{}:{kind}:{body}", kind.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_namespaced_without_concatenation_ambiguity() {
        // ("ab", "c"-keyed value) vs ("a", "bc"-keyed value) style
        // collisions are ruled out by the length prefix.
        assert_ne!(canonical_key("ab", &1u64), canonical_key("a", &1u64));
        assert!(canonical_key("rta", &1u64).starts_with("rtmdm-key/1:3:rta:"));
    }
}
