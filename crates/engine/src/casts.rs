//! `cast as` / constructor-function conversions between atomic types.

use crate::functions::{self, Builtin};
use crate::ir::CastTarget;
use xqa_xdm::{
    parse_boolean, parse_double, AtomicValue, Date, DateTime, Decimal, ErrorCode, XdmError,
    XdmResult,
};

/// Cast one atomic value to the target type, per the XQuery 1.0 casting
/// table (restricted to the supported types).
pub fn cast_atomic(v: &AtomicValue, target: CastTarget) -> XdmResult<AtomicValue> {
    use AtomicValue as V;
    Ok(match target {
        CastTarget::String => V::string(v.string_value()),
        CastTarget::Untyped => V::untyped(v.string_value()),
        CastTarget::Boolean => match v {
            V::Boolean(b) => V::Boolean(*b),
            V::Integer(i) => V::Boolean(*i != 0),
            V::Decimal(d) => V::Boolean(!d.is_zero()),
            V::Double(d) => V::Boolean(*d != 0.0 && !d.is_nan()),
            V::String(s) | V::Untyped(s) => V::Boolean(parse_boolean(s)?),
            other => return cast_err(other, "xs:boolean"),
        },
        CastTarget::Integer => match v {
            V::Integer(i) => V::Integer(*i),
            V::Decimal(d) => V::Integer(d.to_i64()?),
            V::Double(d) => {
                if d.is_nan() || d.is_infinite() {
                    return Err(XdmError::new(
                        ErrorCode::FOAR0002,
                        "cannot cast NaN or INF to xs:integer",
                    ));
                }
                let t = d.trunc();
                if t < i64::MIN as f64 || t > i64::MAX as f64 {
                    return Err(XdmError::new(
                        ErrorCode::FOAR0002,
                        "integer overflow in cast",
                    ));
                }
                V::Integer(t as i64)
            }
            V::Boolean(b) => V::Integer(i64::from(*b)),
            V::String(s) | V::Untyped(s) => {
                let t = s.trim();
                let i = t.parse::<i64>().map_err(|_| {
                    XdmError::value_error(format!("cannot cast {t:?} to xs:integer"))
                })?;
                V::Integer(i)
            }
            other => return cast_err(other, "xs:integer"),
        },
        CastTarget::Decimal => match v {
            V::Decimal(d) => V::Decimal(*d),
            V::Integer(i) => V::Decimal(Decimal::from_i64(*i)),
            V::Double(d) => V::Decimal(Decimal::from_f64(*d)?),
            V::Boolean(b) => V::Decimal(Decimal::from_i64(i64::from(*b))),
            V::String(s) | V::Untyped(s) => V::Decimal(Decimal::parse(s)?),
            other => return cast_err(other, "xs:decimal"),
        },
        CastTarget::Double => match v {
            V::Double(d) => V::Double(*d),
            V::Integer(i) => V::Double(*i as f64),
            V::Decimal(d) => V::Double(d.to_f64()),
            V::Boolean(b) => V::Double(if *b { 1.0 } else { 0.0 }),
            V::String(s) | V::Untyped(s) => V::Double(parse_double(s)?),
            other => return cast_err(other, "xs:double"),
        },
        CastTarget::DateTime => match v {
            V::DateTime(dt) => V::DateTime(*dt),
            V::Date(d) => V::DateTime(DateTime::new(
                d.year,
                d.month,
                d.day,
                0,
                0,
                0,
                0,
                d.tz_offset_min,
            )?),
            V::String(s) | V::Untyped(s) => V::DateTime(DateTime::parse(s)?),
            other => return cast_err(other, "xs:dateTime"),
        },
        CastTarget::Date => match v {
            V::Date(d) => V::Date(*d),
            V::DateTime(dt) => V::Date(dt.date()),
            V::String(s) | V::Untyped(s) => V::Date(Date::parse(s)?),
            other => return cast_err(other, "xs:date"),
        },
    })
}

fn cast_err(v: &AtomicValue, target: &str) -> XdmResult<AtomicValue> {
    Err(XdmError::type_error(format!(
        "cannot cast {} to {target}",
        v.atomic_type()
    )))
}

/// Resolve a lexical type name (`xs:integer`, `integer`) to a cast
/// target.
pub fn cast_target_from_name(prefix: Option<&str>, local: &str) -> Option<CastTarget> {
    if !matches!(prefix, None | Some("xs")) {
        return None;
    }
    match functions::resolve(Some("xs"), local)? {
        Builtin::Cast(target) => Some(target),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &str) -> AtomicValue {
        AtomicValue::string(v)
    }

    #[test]
    fn string_round_trips() {
        let two = cast_atomic(&s("2"), CastTarget::Integer).unwrap();
        assert!(matches!(two, AtomicValue::Integer(2)));
        let back = cast_atomic(&two, CastTarget::String).unwrap();
        assert_eq!(back.string_value(), "2");
    }

    #[test]
    fn numeric_casts() {
        assert!(matches!(
            cast_atomic(&AtomicValue::Double(2.9), CastTarget::Integer).unwrap(),
            AtomicValue::Integer(2)
        ));
        assert!(matches!(
            cast_atomic(&AtomicValue::Double(-2.9), CastTarget::Integer).unwrap(),
            AtomicValue::Integer(-2)
        ));
        assert!(cast_atomic(&AtomicValue::Double(f64::NAN), CastTarget::Integer).is_err());
        assert!(matches!(
            cast_atomic(&s("59.95"), CastTarget::Decimal).unwrap(),
            AtomicValue::Decimal(_)
        ));
        assert!(cast_atomic(&s("abc"), CastTarget::Double).is_err());
    }

    #[test]
    fn boolean_casts() {
        assert!(matches!(
            cast_atomic(&s("true"), CastTarget::Boolean).unwrap(),
            AtomicValue::Boolean(true)
        ));
        assert!(matches!(
            cast_atomic(&s("0"), CastTarget::Boolean).unwrap(),
            AtomicValue::Boolean(false)
        ));
        assert!(matches!(
            cast_atomic(&AtomicValue::Double(f64::NAN), CastTarget::Boolean).unwrap(),
            AtomicValue::Boolean(false)
        ));
        assert!(cast_atomic(&s("maybe"), CastTarget::Boolean).is_err());
    }

    #[test]
    fn temporal_casts() {
        let dt = cast_atomic(&s("2004-01-31T11:32:07"), CastTarget::DateTime).unwrap();
        assert!(matches!(dt, AtomicValue::DateTime(_)));
        let d = cast_atomic(&dt, CastTarget::Date).unwrap();
        assert_eq!(d.string_value(), "2004-01-31");
        let dt2 = cast_atomic(&d, CastTarget::DateTime).unwrap();
        assert_eq!(dt2.string_value(), "2004-01-31T00:00:00");
        // date -> integer is nonsense
        assert!(cast_atomic(&d, CastTarget::Integer).is_err());
    }

    #[test]
    fn name_resolution() {
        assert_eq!(
            cast_target_from_name(Some("xs"), "integer"),
            Some(CastTarget::Integer)
        );
        assert_eq!(
            cast_target_from_name(None, "double"),
            Some(CastTarget::Double)
        );
        assert_eq!(cast_target_from_name(Some("xs"), "anyURI"), None);
        assert_eq!(cast_target_from_name(Some("my"), "integer"), None);
    }
}
